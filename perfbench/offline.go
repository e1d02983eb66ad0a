package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/experiments"
	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/slowdown"
	"dismem/internal/sweep"
	"dismem/internal/telemetry"
	"dismem/internal/tracegen"
)

// ---- grizzly-week ----------------------------------------------------------

const (
	grizzlyBasket = 6
	// grizzlyJitterSec spreads each job's submit time by a seeded offset
	// in [0, grizzlyJitterSec): every input is the same sampled week,
	// shifted job by job, so inputs cost about the same to simulate.
	grizzlyJitterSec = 600
)

func grizzlyPreset() experiments.Preset {
	p := experiments.Bench()
	p.GrizzlyNodes = 1490 // the paper's Grizzly system
	return p
}

// grizzlyWeek is the Bench preset's first sampled Grizzly week at 1490
// nodes with +50 % request overestimation.
func grizzlyWeek() ([]*job.Job, error) { return grizzlyPreset().GrizzlyTrace(0.5) }

// jitter returns a copy of week with every submit time shifted by the
// input's seeded offset.
func jitter(week []*job.Job, input int) []*job.Job {
	rng := rand.New(rand.NewSource(int64(input) + 1))
	jobs := make([]*job.Job, len(week))
	for i, j := range week {
		c := *j
		c.SubmitTime += rng.Float64() * grizzlyJitterSec
		jobs[i] = &c
	}
	return jobs
}

// grizzlyConfig is the default configuration a user gets: 62 % memory, the
// dynamic policy, EASY backfill, global contention, serial executor.
func grizzlyConfig() (core.Config, error) {
	mc, err := experiments.MemConfigByPct(62)
	if err != nil {
		return core.Config{}, err
	}
	p := grizzlyPreset()
	return p.ConfigFor(p.GrizzlyNodes, mc, policy.Dynamic), nil
}

// grizzlyInputs is the set-up step: the week, jittered once per input of
// the run's basket.
func grizzlyInputs(e *env) ([][]*job.Job, error) {
	week, err := grizzlyWeek()
	if err != nil {
		return nil, err
	}
	sets := make([][]*job.Job, grizzlyBasket)
	for k := range sets {
		sets[k] = jitter(week, e.input(k))
	}
	return sets, nil
}

func runGrizzlyWeek(e *env, o *outcome) error {
	cfg, err := grizzlyConfig()
	if err != nil {
		return err
	}
	return simulate(e, o, cfg, func() ([][]*job.Job, error) { return grizzlyInputs(e) }, "traces.grizzly")
}

func grizzlyDigest(input int) (string, error) {
	cfg, err := grizzlyConfig()
	if err != nil {
		return "", err
	}
	week, err := grizzlyWeek()
	if err != nil {
		return "", err
	}
	res, err := runOnce(cfg, jitter(week, input))
	if err != nil {
		return "", err
	}
	return resultDigest(res), nil
}

// ---- hundredk-domains ------------------------------------------------------

const (
	hundredKBasket = 8
	hundredKNodes  = 100_000
	hundredKJobs   = 2000 // 48 nodes each: 96k nodes busy at peak
	// hundredKScale stretches every runtime so one simulation runs for
	// seconds; a longer run means more memory updates (and ledger churn)
	// per job, not a longer queue.
	hundredKScale = 24
)

// hundredKDomainsJobs is the handcrafted 100k-node job set: 48-node jobs,
// one submitted per second, a growing usage trace that forces a memory
// update (and lease adjustment) on every job each period. Runtimes are
// drawn from the input's seed.
func hundredKDomainsJobs(input int) []*job.Job {
	prof := &slowdown.Profile{
		Name: "bench-stream", Nodes: 1, RuntimeSec: 3000, BandwidthGBs: 8,
		Sens: slowdown.CurveStream,
	}
	rng := rand.New(rand.NewSource(int64(input) + 1))
	jobs := make([]*job.Job, 0, hundredKJobs)
	for i := 0; i < hundredKJobs; i++ {
		runtime := (2000 + float64(rng.Intn(200))*10) * hundredKScale
		usage := memtrace.MustNew([]memtrace.Point{
			{T: 0, MB: 8 * 1024},
			{T: runtime * 0.7, MB: 20 * 1024},
			{T: runtime, MB: 24 * 1024},
		})
		jobs = append(jobs, &job.Job{
			ID:          i + 1,
			SubmitTime:  float64(i),
			Nodes:       48,
			RequestMB:   26 * 1024,
			LimitSec:    runtime * 4,
			BaseRuntime: runtime,
			Usage:       usage,
			Profile:     prof,
		})
	}
	return jobs
}

// hundredKConfig: serial executor, pressure domains, 64 domains.
func hundredKConfig() core.Config {
	return core.Config{
		Cluster: cluster.Config{
			Nodes:    hundredKNodes,
			Cores:    32,
			NormalMB: experiments.NormalNodeMB,
		},
		Policy:         policy.Dynamic,
		UpdateInterval: 200,
		Pressure:       core.PressureDomains,
		Domains:        64,
		Seed:           1,
	}
}

func runHundredKDomains(e *env, o *outcome) error {
	return simulate(e, o, hundredKConfig(), func() ([][]*job.Job, error) {
		sets := make([][]*job.Job, hundredKBasket)
		for k := range sets {
			sets[k] = hundredKDomainsJobs(e.input(k))
		}
		return sets, nil
	}, "")
}

func hundredKDigest(input int) (string, error) {
	res, err := runOnce(hundredKConfig(), hundredKDomainsJobs(input))
	if err != nil {
		return "", err
	}
	return resultDigest(res), nil
}

// ---- shared simulation loop -----------------------------------------------

// residentInputs builds the inputs the measured phase keeps, untimed, with
// the collector off and one collection after. The build allocates
// deterministically, so the kept objects land in the same places in every
// process; built under a running collector, how many of the generator's
// pages they keep resident would depend on GC timing, and peak_rss_mb with
// it.
func residentInputs(build func() ([][]*job.Job, error)) ([][]*job.Job, error) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	sets, err := build()
	debug.SetGCPercent(old)
	runtime.GC()
	return sets, err
}

func runOnce(cfg core.Config, jobs []*job.Job) (*core.Result, error) {
	s, err := core.New(cfg, jobs)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// simulate runs the two simulation workloads. build is the set-up step,
// producing one job set per input of the basket; it is timed several times
// for setup_s, then run once more for the inputs the measured phase keeps.
// The measured phase is core.New + Run over the job sets in turn for the
// run's budget, each result checked against its input's reference digest.
// The traced pass re-runs build under a span named setupSpan (unless
// empty) and simulates the first job set once with telemetry counters on.
func simulate(e *env, o *outcome, cfg core.Config, build func() ([][]*job.Job, error), setupSpan string) error {
	setup, err := repeatSetup(func() (time.Duration, error) {
		return cpuTimed(func() error {
			_, err := build()
			return err
		})
	})
	if err != nil {
		return err
	}
	sets, err := residentInputs(build)
	if err != nil {
		return err
	}
	times, cpu, rss, err := timeLoop(e.seconds, func(k int) error {
		res, err := runOnce(cfg, sets[k%len(sets)])
		if err != nil {
			return err
		}
		o.attempted++
		if err := e.refs.check(refKey(e.workload, e.input(k)), resultDigest(res)); err != nil {
			o.fail("%v", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.e2e["setup_s"] = setup
	o.e2e["run_cpu_s"] = mean(cpu)
	o.e2e["peak_rss_mb"] = rss
	o.layer["run_wall_s"] = median(times)
	if !e.trace {
		return nil
	}

	tr := newTracer()
	rec := telemetry.New(telemetry.Options{})
	var res *core.Result
	var simTime time.Duration
	err = traced(e, o, tr, map[string]string{
		"traces.grizzly": "traces.grizzly_s",
		"core.new":       "core.new_s",
		"core.run":       "core.run_s",
	}, func() error {
		if setupSpan != "" {
			id := tr.begin(setupSpan, 0, 0)
			_, err := build()
			tr.end(id)
			if err != nil {
				return err
			}
		}
		c := cfg
		c.Telemetry = rec
		t0 := time.Now()
		id := tr.begin("core.new", 0, 0)
		s, err := core.New(c, sets[0])
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("core.run", 0, 0)
		res, err = s.Run()
		tr.end(id)
		simTime = time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	o.attempted++
	if err := e.refs.check(refKey(e.workload, e.input(0)), resultDigest(res)); err != nil {
		o.fail("traced run: %v", err)
	}
	o.layer["cluster.lease_grants"] = float64(rec.Count(telemetry.KindLeaseGrant))
	o.layer["cluster.lease_adjusts"] = float64(rec.Count(telemetry.KindLeaseAdjust))
	o.layer["cluster.lease_revokes"] = float64(rec.Count(telemetry.KindLeaseRevoke))
	o.layer["sched.backfill_places"] = float64(rec.Count(telemetry.KindBackfillPlace))
	o.layer["sched.peak_queue"] = float64(res.PeakQueue)
	o.layer["core.oom_kills"] = float64(res.OOMKills)
	o.layer["trace.overhead_frac"] = simTime.Seconds()/median(firstOfBasket(times, len(sets))) - 1
	return nil
}

// ---- paper-figures ---------------------------------------------------------

const (
	figuresBasket = 16
	headlineSeeds = 2
)

// figuresPreset is the Bench preset seeded with the input's id.
func figuresPreset(input int) experiments.Preset {
	p := experiments.Bench()
	p.Seed = int64(input) + 1
	return p
}

// coldHeadlines regenerates Figs. 5/6/7/9's headline metrics on an empty
// trace cache, as every dmpexp invocation does.
func coldHeadlines(p experiments.Preset) (*experiments.Headlines, error) {
	tracegen.ResetCache()
	return experiments.RunHeadlines(p, headlineSeeds)
}

// dmpexpStart runs the dmpexp binary with -h, which exits as soon as
// flags are parsed, and returns the CPU time the process used: process
// start and package initialisation, which a user pays on every dmpexp
// invocation.
func dmpexpStart(bin string) (time.Duration, error) {
	if bin == "" {
		return 0, errors.New("no dmpexp binary (-dmpexp)")
	}
	cmd := exec.Command(bin, "-h")
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("dmpexp -h: %v", err)
	}
	return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), nil
}

func runPaperFigures(e *env, o *outcome) error {
	setup, err := repeatSetup(func() (time.Duration, error) { return dmpexpStart(e.dmpexp) })
	if err != nil {
		return err
	}
	times, cpu, rss, err := timeLoop(e.seconds, func(k int) error {
		h, err := coldHeadlines(figuresPreset(e.input(k)))
		if err != nil {
			return err
		}
		o.attempted++
		if err := e.refs.check(refKey(e.workload, e.input(k)), headlinesDigest(h)); err != nil {
			o.fail("%v", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.e2e["setup_s"] = setup
	o.e2e["run_cpu_s"] = mean(cpu)
	o.e2e["peak_rss_mb"] = rss
	o.layer["run_wall_s"] = median(times)
	if !e.trace {
		return nil
	}

	tr := newTracer()
	p, key := figuresPreset(e.input(0)), refKey(e.workload, e.input(0))
	return traced(e, o, tr, map[string]string{
		"experiments.headlines_cold": "experiments.headlines_cold_s",
		"experiments.headlines_warm": "experiments.headlines_warm_s",
	}, func() error {
		t0 := time.Now()
		id := tr.begin("experiments.headlines_cold", 0, 0)
		h, err := coldHeadlines(p)
		tr.end(id)
		cold := time.Since(t0)
		if err != nil {
			return err
		}
		_, hits, misses := tracegen.CacheStats()
		o.layer["tracegen.hits"] = float64(hits)
		o.layer["tracegen.misses"] = float64(misses)
		o.layer["trace.overhead_frac"] = cold.Seconds()/median(firstOfBasket(times, figuresBasket)) - 1
		o.attempted++
		if err := e.refs.check(key, headlinesDigest(h)); err != nil {
			o.fail("traced run: %v", err)
		}
		id = tr.begin("experiments.headlines_warm", 0, 0)
		h, err = experiments.RunHeadlines(p, headlineSeeds)
		tr.end(id)
		if err != nil {
			return err
		}
		o.attempted++
		if err := e.refs.check(key, headlinesDigest(h)); err != nil {
			o.fail("warm run: %v", err)
		}
		o.layer["sweep.peak_workers"] = float64(sweep.SharedPool().PeakWorkers())
		return nil
	})
}

func figuresDigest(input int) (string, error) {
	h, err := coldHeadlines(figuresPreset(input))
	if err != nil {
		return "", err
	}
	return headlinesDigest(h), nil
}
