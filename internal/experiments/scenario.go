package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/metrics"
	"dismem/internal/policy"
	"dismem/internal/sweep"
	"dismem/internal/telemetry"
	"dismem/internal/tracegen"
)

// ScenarioSpec is a user-defined experiment, loaded from JSON: one
// generated workload swept over memory configurations and policies with
// custom simulator knobs. It exposes the same machinery the built-in
// figures use, so downstream users can define studies without writing Go.
//
// Example:
//
//	{
//	  "name": "my-study",
//	  "trace": {"model": "lublin", "large_frac": 0.25, "overestimation": 0.5},
//	  "mem_pcts": [50, 75, 100],
//	  "policies": ["static", "dynamic"],
//	  "backfill": "conservative",
//	  "update_interval_s": 120,
//	  "oom": "checkpoint_restart"
//	}
type ScenarioSpec struct {
	Name  string `json:"name"`
	Trace struct {
		Model          string  `json:"model"`          // cirne (default) | lublin
		LargeFrac      float64 `json:"large_frac"`     // fraction of large-memory jobs
		Overestimation float64 `json:"overestimation"` // request inflation
		ChainFrac      float64 `json:"chain_frac"`     // dependency chains
		Load           float64 `json:"load"`           // 0 = preset default
		Days           float64 `json:"days"`           // 0 = preset default
		SystemNodes    int     `json:"system_nodes"`   // 0 = preset default
		Seed           int64   `json:"seed"`           // 0 = preset default
	} `json:"trace"`
	MemPcts          []int    `json:"mem_pcts"`          // empty = all eight configurations
	Policies         []string `json:"policies"`          // empty = baseline, static, dynamic
	Backfill         string   `json:"backfill"`          // easy (default) | conservative | none
	UpdateInterval   float64  `json:"update_interval_s"` // 0 = preset default
	OOM              string   `json:"oom"`               // fail_restart (default) | checkpoint_restart
	EnforceTimeLimit bool     `json:"enforce_time_limit"`
	Pressure         string   `json:"pressure"` // global (default) | domains
	Domains          int      `json:"domains"`  // pressure-domain count (0 = derive; needs pressure=domains)

	// Telemetry, when non-nil, builds one private recorder per
	// (memory, policy) cell. Cells run on parallel sweep workers, so a
	// shared recorder would interleave nondeterministically; a
	// recorder-per-cell keeps each cell's event log byte-deterministic.
	// The factory is called from the cell's worker; the recorder is closed
	// when that cell's simulation finishes. Returning nil disables
	// telemetry for the cell. Set programmatically (dmpexp -telemetry);
	// not part of the JSON schema.
	Telemetry func(memPct int, pol string) *telemetry.Recorder `json:"-"`
}

// LoadScenario parses and validates a spec. Unknown fields are rejected
// (the daemon serves untrusted documents, and a typoed knob silently
// falling back to a default would return a confidently wrong simulation),
// and every enum error names the offending JSON field.
func LoadScenario(r io.Reader) (*ScenarioSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s ScenarioSpec
	if err := dec.Decode(&s); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, errors.New("scenario: empty spec (want a JSON object)")
		}
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if s.Name == "" {
		s.Name = "scenario"
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks every enum and range field, naming the JSON field in each
// error so a daemon client can map the message back to its document.
func (s *ScenarioSpec) Validate() error {
	if _, err := s.policies(); err != nil {
		return err
	}
	if _, err := s.backfill(); err != nil {
		return err
	}
	if _, err := s.oom(); err != nil {
		return err
	}
	if _, err := s.pressure(); err != nil {
		return err
	}
	for _, pct := range s.MemPcts {
		if _, err := MemConfigByPct(pct); err != nil {
			return fmt.Errorf("scenario: field %q: %v", "mem_pcts", err)
		}
	}
	if s.Trace.LargeFrac < 0 || s.Trace.LargeFrac > 1 {
		return fmt.Errorf("scenario: field %q: %g out of [0,1]", "trace.large_frac", s.Trace.LargeFrac)
	}
	if s.Trace.ChainFrac < 0 || s.Trace.ChainFrac > 1 {
		return fmt.Errorf("scenario: field %q: %g out of [0,1]", "trace.chain_frac", s.Trace.ChainFrac)
	}
	if s.Trace.Overestimation < 0 {
		return fmt.Errorf("scenario: field %q: %g is negative", "trace.overestimation", s.Trace.Overestimation)
	}
	if s.Trace.Load < 0 {
		return fmt.Errorf("scenario: field %q: %g is negative", "trace.load", s.Trace.Load)
	}
	if s.Trace.Days < 0 {
		return fmt.Errorf("scenario: field %q: %g is negative", "trace.days", s.Trace.Days)
	}
	if s.Trace.SystemNodes < 0 {
		return fmt.Errorf("scenario: field %q: %d is negative", "trace.system_nodes", s.Trace.SystemNodes)
	}
	if s.UpdateInterval < 0 {
		return fmt.Errorf("scenario: field %q: %g is negative", "update_interval_s", s.UpdateInterval)
	}
	if s.UpdateInterval > 0 && s.UpdateInterval < 1 {
		return fmt.Errorf("scenario: field %q: %g s is below the 1 s minimum (0 means the preset's period)",
			"update_interval_s", s.UpdateInterval)
	}
	return nil
}

func (s *ScenarioSpec) policies() ([]policy.Kind, error) {
	if len(s.Policies) == 0 {
		return []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic}, nil
	}
	var out []policy.Kind
	for i, name := range s.Policies {
		switch strings.ToLower(name) {
		case "baseline":
			out = append(out, policy.Baseline)
		case "static":
			out = append(out, policy.Static)
		case "dynamic":
			out = append(out, policy.Dynamic)
		default:
			return nil, fmt.Errorf("scenario: field %q: unknown policy %q (want baseline, static, or dynamic)",
				fmt.Sprintf("policies[%d]", i), name)
		}
	}
	return out, nil
}

func (s *ScenarioSpec) backfill() (core.BackfillMode, error) {
	switch strings.ToLower(s.Backfill) {
	case "", "easy":
		return core.EASYBackfill, nil
	case "conservative":
		return core.ConservativeBackfill, nil
	case "none":
		return core.NoBackfill, nil
	}
	return 0, fmt.Errorf("scenario: field %q: unknown mode %q (want easy, conservative, or none)",
		"backfill", s.Backfill)
}

func (s *ScenarioSpec) oom() (core.OOMMode, error) {
	switch strings.ToLower(s.OOM) {
	case "", "fail_restart":
		return core.FailRestart, nil
	case "checkpoint_restart":
		return core.CheckpointRestart, nil
	}
	return 0, fmt.Errorf("scenario: field %q: unknown mode %q (want fail_restart or checkpoint_restart)",
		"oom", s.OOM)
}

func (s *ScenarioSpec) pressure() (core.PressureMode, error) {
	switch strings.ToLower(s.Pressure) {
	case "", "global":
		if s.Domains != 0 {
			return 0, fmt.Errorf("scenario: field %q: set to %d without %q: %q",
				"domains", s.Domains, "pressure", "domains")
		}
		return core.PressureGlobal, nil
	case "domains":
		if s.Domains < 0 {
			return 0, fmt.Errorf("scenario: field %q: negative count %d", "domains", s.Domains)
		}
		return core.PressureDomains, nil
	}
	return 0, fmt.Errorf("scenario: field %q: unknown mode %q (want global or domains)",
		"pressure", s.Pressure)
}

// scenarioPressure is s.pressure plus the one range check that needs the
// preset: an explicit domain count must be one the run's resolved node
// count partitions into exactly that many contiguous domains
// (cluster.EffectiveShards), the rule core.Config.Normalize enforces.
// ScenarioKey, which dmpd calls before admission, and RunScenarioSpecCtx
// share it, so a spec the daemon admits is a spec that runs as written.
func (p Preset) scenarioPressure(s *ScenarioSpec) (core.PressureMode, error) {
	pm, err := s.pressure()
	if err != nil {
		return 0, err
	}
	if s.Domains > 0 {
		nodes := p.scenarioTraceParams(s).SystemNodes
		if built := cluster.EffectiveShards(nodes, s.Domains); built != s.Domains {
			return 0, fmt.Errorf("scenario: field %q: %d domains are not attainable on the %d-node system (the contiguous partition builds %d)",
				"domains", s.Domains, nodes, built)
		}
	}
	return pm, nil
}

// ScenarioResult is the sweep outcome: one row per (memory, policy).
type ScenarioResult struct {
	Name string
	Rows []ScenarioRow
}

// ScenarioRow carries absolute metrics (the spec defines no baseline to
// normalise against).
type ScenarioRow struct {
	MemPct         int
	Policy         string
	Throughput     float64 // jobs/s; NaN = infeasible
	MedianResponse float64
	OOMKills       int
	MeanStretch    float64
}

// scenarioTraceParams resolves the preset/spec overlay into the trace
// pipeline's parameters: spec values override the preset's scale knobs
// where set. RunScenarioSpecCtx and ScenarioKey share it, so the key can
// never drift from what actually runs.
func (p Preset) scenarioTraceParams(s *ScenarioSpec) tracegen.Params {
	nodes := p.SystemNodes
	if s.Trace.SystemNodes > 0 {
		nodes = s.Trace.SystemNodes
	}
	load := p.Load
	if s.Trace.Load > 0 {
		load = s.Trace.Load
	}
	days := p.Days
	if s.Trace.Days > 0 {
		days = s.Trace.Days
	}
	seed := p.Seed
	if s.Trace.Seed != 0 {
		seed = s.Trace.Seed
	}
	return tracegen.Params{
		SystemNodes:       nodes,
		Load:              load,
		Days:              days,
		LargeFrac:         s.Trace.LargeFrac,
		Overestimation:    s.Trace.Overestimation,
		NormalNodeMB:      NormalNodeMB,
		GoogleCollections: p.GoogleCollections,
		Model:             s.Trace.Model,
		Cirne:             p.Cirne,
		Seed:              seed,
	}
}

// resolvedMemPcts returns the memory axis the spec sweeps: its own list, or
// all eight paper configurations when empty.
func (s *ScenarioSpec) resolvedMemPcts() []int {
	if len(s.MemPcts) > 0 {
		return s.MemPcts
	}
	var mems []int
	for _, mc := range MemoryConfigs() {
		mems = append(mems, mc.LabelPct)
	}
	return mems
}

// ScenarioKey returns the canonical SHA-256 identity of (preset, spec) —
// the same content-addressing scheme as tracegen.Key, extended over the
// sweep dimensions. Two requests with this key, run at this preset, produce
// byte-identical results, so the dmpd daemon keys its result cache on it.
// The trace portion reuses tracegen.Key on the resolved parameters, which
// already canonicalises default spellings and pointer identity.
func (p Preset) ScenarioKey(s *ScenarioSpec) (string, error) {
	pols, err := s.policies()
	if err != nil {
		return "", err
	}
	bf, err := s.backfill()
	if err != nil {
		return "", err
	}
	oom, err := s.oom()
	if err != nil {
		return "", err
	}
	pm, err := p.scenarioPressure(s)
	if err != nil {
		return "", err
	}
	c := tracegen.NewCanon("dismem/scenario/v1")
	c.Str("name", s.Name)
	c.Str("trace", tracegen.Key(p.scenarioTraceParams(s)))
	c.Float("chain", s.Trace.ChainFrac)
	for _, pct := range s.resolvedMemPcts() {
		c.Int("mem", int64(pct))
	}
	for _, pol := range pols {
		c.Str("pol", pol.String())
	}
	c.Str("backfill", bf.String())
	c.Str("oom", oom.String())
	c.Str("pressure", pm.String())
	c.Int("domains", int64(s.Domains))
	update := p.UpdateInterval
	if s.UpdateInterval > 0 {
		update = s.UpdateInterval
	}
	c.Float("update", update)
	enforce := int64(0)
	if s.EnforceTimeLimit {
		enforce = 1
	}
	c.Int("enforce", enforce)
	return c.Sum(), nil
}

// RunScenarioSpec executes the spec at the preset's scale.
func (p Preset) RunScenarioSpec(s *ScenarioSpec) (*ScenarioResult, error) {
	return p.RunScenarioSpecCtx(context.Background(), s)
}

// RunScenarioSpecCtx is RunScenarioSpec under a context: cancellation
// aborts in-flight cell simulations (polled between events via
// core.Config.Interrupt) and skips cells not yet started, returning the
// context's error. The sweep itself still runs every cell to a result or
// error before returning, so a cancelled run never leaks tasks into the
// shared pool. An uncancelled context changes nothing — results are
// byte-identical to RunScenarioSpec.
func (p Preset) RunScenarioSpecCtx(ctx context.Context, s *ScenarioSpec) (*ScenarioResult, error) {
	pols, err := s.policies()
	if err != nil {
		return nil, err
	}
	bf, err := s.backfill()
	if err != nil {
		return nil, err
	}
	oom, err := s.oom()
	if err != nil {
		return nil, err
	}
	pm, err := p.scenarioPressure(s)
	if err != nil {
		return nil, err
	}
	mems := s.resolvedMemPcts()
	// Dependency chains are a BuildJobs option the pipeline does not
	// thread through; scenarioJobs regenerates the dependency layer over
	// cloned jobs when asked (the cached trace is shared, so the chains
	// are never written through the shared pointers).
	jobs, params, err := p.scenarioJobs(ctx, s)
	if err != nil {
		return nil, err
	}
	nodes := params.SystemNodes

	var tasks []sweep.Task[ScenarioRow]
	for _, pct := range mems {
		mc, err := MemConfigByPct(pct)
		if err != nil {
			return nil, err
		}
		for _, pol := range pols {
			mc, pol := mc, pol
			tasks = append(tasks, func() (ScenarioRow, error) {
				row := ScenarioRow{MemPct: mc.LabelPct, Policy: pol.String(),
					Throughput: Infeasible, MedianResponse: Infeasible, MeanStretch: Infeasible}
				if err := ctx.Err(); err != nil {
					return row, err // cancelled before this cell started
				}
				var rec *telemetry.Recorder
				if s.Telemetry != nil {
					rec = s.Telemetry(mc.LabelPct, pol.String())
				}
				res, err := p.RunScenarioWith(jobs, nodes, mc, pol, func(cfg *core.Config) {
					cfg.Backfill = bf
					cfg.OOM = oom
					cfg.Pressure = pm
					cfg.Domains = s.Domains
					cfg.EnforceTimeLimit = s.EnforceTimeLimit
					if s.UpdateInterval > 0 {
						cfg.UpdateInterval = s.UpdateInterval
					}
					if ctx.Done() != nil {
						// ctx.Err is nil until cancellation, so an
						// uncancelled run is provably unperturbed
						// (core's nil-interrupt purity test).
						cfg.Interrupt = ctx.Err
					}
					cfg.Telemetry = rec
				})
				if cerr := rec.Close(); cerr != nil && err == nil {
					err = cerr
				}
				if err != nil {
					return row, err
				}
				if !res.Infeasible {
					row.Throughput = res.Throughput()
					row.OOMKills = res.OOMKills
					row.MeanStretch = res.MeanStretch()
					if rts := res.ResponseTimes(); len(rts) > 0 {
						e, err := metrics.NewECDF(rts)
						if err != nil {
							return row, err
						}
						row.MedianResponse = e.Median()
					}
				}
				return row, nil
			})
		}
	}
	rows, err := sweep.Values(sweep.Run(tasks))
	if err != nil {
		return nil, err
	}
	return &ScenarioResult{Name: s.Name, Rows: rows}, nil
}

func (r *ScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario %q\n\n", r.Name)
	fmt.Fprintf(&b, "%6s %-9s %14s %14s %6s %9s\n", "mem%", "policy", "jobs/s", "median-resp(s)", "OOM", "stretch")
	for _, row := range r.Rows {
		if isNaN(row.Throughput) {
			fmt.Fprintf(&b, "%6d %-9s %14s %14s %6s %9s\n", row.MemPct, row.Policy, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%6d %-9s %14.6f %14.0f %6d %9.3f\n",
			row.MemPct, row.Policy, row.Throughput, row.MedianResponse, row.OOMKills, row.MeanStretch)
	}
	return b.String()
}

// WriteCSV emits mem_pct,policy,throughput,median_response_s,oom_kills,mean_stretch.
func (r *ScenarioResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			strconv.Itoa(row.MemPct), row.Policy,
			f2s(row.Throughput), f2s(row.MedianResponse),
			strconv.Itoa(row.OOMKills), f2s(row.MeanStretch),
		})
	}
	return writeAll(w, []string{"mem_pct", "policy", "throughput", "median_response_s", "oom_kills", "mean_stretch"}, rows)
}
