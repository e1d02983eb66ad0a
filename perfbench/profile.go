package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuLayers are the layers flat CPU samples fold into, each reported as
// "<layer>.cpu_frac". The core package is split by method family; every
// other module package is its own layer; the Go runtime is one layer and
// everything else (standard library, the benchmark itself) is "other".
var cpuLayers = []string{
	"core.refresh", "core.bank", "core.schedpass", "core",
	"memtrace", "sched", "cluster", "sim", "policy", "slowdown",
	"tracegen", "workload", "traces", "experiments", "sweep",
	"telemetry", "server", "runtime", "other",
}

// schedPass lists the core methods of one scheduling pass.
var schedPass = map[string]bool{
	"schedulePass": true, "easyPass": true, "conservativePass": true,
	"releaseOf": true, "demandFor": true, "shadowTimeFor": true,
}

// layerOf maps a pprof function name to its layer.
func layerOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	const mod = "dismem/internal/"
	if rest, ok := strings.CutPrefix(fn, mod); ok {
		end := strings.IndexAny(rest, "./")
		if end < 0 {
			return "other"
		}
		pkg := rest[:end]
		if pkg == "core" {
			return coreFamily(rest[end+1:])
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	// Assembly stubs (gcWriteBarrier, memeqbody) carry no package name.
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || !strings.Contains(fn, ".") {
		return "runtime"
	}
	return "other"
}

// coreFamily classifies a core symbol ("(*Simulator).refreshAll.func1",
// "bankDelta") by its method name.
func coreFamily(sym string) string {
	if strings.HasPrefix(sym, "(") {
		if i := strings.Index(sym, ")."); i >= 0 {
			sym = sym[i+2:]
		}
	}
	if i := strings.IndexAny(sym, ".["); i >= 0 {
		sym = sym[:i]
	}
	switch {
	case strings.HasPrefix(sym, "refresh"), strings.HasPrefix(sym, "recontend"), sym == "refinish":
		return "core.refresh"
	case strings.HasPrefix(sym, "bank"):
		return "core.bank"
	case schedPass[sym], strings.HasPrefix(sym, "currentResources"), strings.HasPrefix(sym, "releases"):
		return "core.schedpass"
	}
	return "core"
}

// foldTop folds the flat column of `go tool pprof -top` output (run with
// -sample_index=samples, so values are sample counts) by layer. It returns
// the samples per layer and their total.
func foldTop(text string) (map[string]float64, float64, error) {
	out := map[string]float64{}
	var total float64
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !inTable {
			inTable = strings.HasPrefix(line, "flat ")
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof top: bad flat value in %q", line)
		}
		name := strings.Join(f[5:], " ")
		out[layerOf(name)] += flat
		total += flat
	}
	if !inTable {
		return nil, 0, fmt.Errorf("pprof top: no table in output")
	}
	return out, total, sc.Err()
}

// profiler wraps one runtime/pprof CPU profile written to path.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// cpuFractions runs `go tool pprof -top` on the written profile and returns
// the per-layer "<layer>.cpu_frac" metrics plus "profile.samples", the
// sample count they are fractions of. The numbers are sampled (100 Hz).
func (p *profiler) cpuFractions(goBin string) (map[string]float64, error) {
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-sample_index=samples", p.path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v", err)
	}
	byLayer, total, err := foldTop(string(out))
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"profile.samples": total}
	for _, l := range cpuLayers {
		if total > 0 {
			m[l+".cpu_frac"] = byLayer[l] / total
		}
	}
	return m, nil
}
