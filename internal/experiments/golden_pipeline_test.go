package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"dismem/internal/metrics"
)

// Golden digests of the whole figure pipeline at the Quick() preset,
// recorded on the pre-pipeline implementation: the serial RunFig5/6/7/8/9
// and RunHeadlines that generated every trace from scratch and ran each
// stage behind a barrier. The pooled, cached pipeline must reproduce every
// figure bit-for-bit (float64 bit patterns included); a digest change here
// means the restructuring altered results, which is a bug, not drift.
//
// To regenerate after an intentional behaviour change, run the test and
// copy the "got" digests it prints on failure.
var goldenPipelineDigests = map[string]string{
	"fig5":      "e5e6ebb1bd95e61702726ef24d4b8e3464e916508d6e0f79f36464bdd0f36dee",
	"fig6":      "e033bed213879d45a9ce5da963d942ecbe3a09a6b7881f037cb594b84a87f4e0",
	"fig7":      "8fa5814b6039cf673bc8d2e03ea15e34adfc62486ea45a88001015935014c0b4",
	"fig8":      "7641957a780cad66416b72b2cb9aa73743d2c1658c2bfd7bd8eef13659c2a496",
	"fig9":      "ce9ae7b21d3df63535ca85f3f17340e0b3ffcc9cf85a0ca81ff7b5c5326ae24e",
	"headlines": "c053fa812dafe93933bdc0659af80f3df0b94bdfdf437afe57f48ab5684ec905",
}

// fbits folds a float64 into the digest as its exact IEEE-754 bit pattern.
func fbits(b *strings.Builder, f float64) { fmt.Fprintf(b, "%016x,", math.Float64bits(f)) }

func digestGrid(b *strings.Builder, g *ThroughputGrid) {
	fmt.Fprintf(b, "trace=%s,", g.Trace)
	fbits(b, g.Overest)
	for _, r := range g.Rows {
		fmt.Fprintf(b, "mem=%d,", r.MemPct)
		fbits(b, r.Baseline)
		fbits(b, r.Static)
		fbits(b, r.Dynamic)
	}
}

func seal(b *strings.Builder) string {
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func digestFig5(f *Fig5) string {
	var b strings.Builder
	for _, g := range f.Panels {
		digestGrid(&b, g)
	}
	return seal(&b)
}

func digestECDF(b *strings.Builder, e *metrics.ECDF) {
	if e == nil {
		b.WriteString("nil,")
		return
	}
	fmt.Fprintf(b, "n=%d,", e.Len())
	for _, pt := range e.Points(0) {
		fbits(b, pt.X)
		fbits(b, pt.P)
	}
}

func digestFig6(f *Fig6) string {
	var b strings.Builder
	for i := range f.Panels {
		p := &f.Panels[i]
		fmt.Fprintf(&b, "sc=%s,mem=%d,", p.Scenario, p.MemPct)
		fbits(&b, p.Overest)
		digestECDF(&b, p.Static)
		digestECDF(&b, p.Dynamic)
	}
	return seal(&b)
}

func digestFig7(f *Fig7) string {
	var b strings.Builder
	for _, p := range f.Panels {
		fmt.Fprintf(&b, "sys=%d,", p.SysPct)
		fbits(&b, p.Overest)
		for _, pt := range p.Points {
			fmt.Fprintf(&b, "large=%d,", pt.LargePct)
			fbits(&b, pt.Static)
			fbits(&b, pt.Dynamic)
		}
	}
	return seal(&b)
}

func digestFig8(f *Fig8) string {
	var b strings.Builder
	for _, g := range f.Synthetic {
		digestGrid(&b, g)
	}
	b.WriteString("grizzly,")
	for _, g := range f.Grizzly {
		digestGrid(&b, g)
	}
	return seal(&b)
}

func digestFig9(f *Fig9) string {
	var b strings.Builder
	fbits(&b, f.Threshold)
	for _, pt := range f.Points {
		fbits(&b, pt.Overest)
		fmt.Fprintf(&b, "static=%d,dynamic=%d,", pt.StaticPct, pt.DynamicPct)
	}
	return seal(&b)
}

func digestStat(b *strings.Builder, s Stat) {
	fbits(b, s.Mean)
	fbits(b, s.Stdev)
	fmt.Fprintf(b, "n=%d,", s.N)
}

func digestHeadlines(h *Headlines) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seeds=%d,", h.Seeds)
	digestStat(&b, h.ThroughputGainPts)
	digestStat(&b, h.TPDGainFrac)
	digestStat(&b, h.MedianRespReduct)
	digestStat(&b, h.MemorySavingPoints)
	return seal(&b)
}

// TestGoldenPipelineDigest is the determinism regression gate for the
// barrier-free experiment pipeline: every figure and the replicated
// headline metrics, at the Quick() preset, must match the digests captured
// on the serial, uncached implementation.
func TestGoldenPipelineDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-pipeline golden run is expensive; skipped with -short")
	}
	p := Quick()
	steps := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig5", func() (string, error) {
			f, err := RunFig5(p, false)
			if err != nil {
				return "", err
			}
			return digestFig5(f), nil
		}},
		{"fig6", func() (string, error) {
			f, err := RunFig6(p)
			if err != nil {
				return "", err
			}
			return digestFig6(f), nil
		}},
		{"fig7", func() (string, error) {
			f, err := RunFig7(p)
			if err != nil {
				return "", err
			}
			return digestFig7(f), nil
		}},
		{"fig8", func() (string, error) {
			f, err := RunFig8(p, false)
			if err != nil {
				return "", err
			}
			return digestFig8(f), nil
		}},
		{"fig9", func() (string, error) {
			f, err := RunFig9(p)
			if err != nil {
				return "", err
			}
			return digestFig9(f), nil
		}},
		{"headlines", func() (string, error) {
			h, err := RunHeadlines(p, 2)
			if err != nil {
				return "", err
			}
			return digestHeadlines(h), nil
		}},
	}
	for _, s := range steps {
		s := s
		t.Run(s.name, func(t *testing.T) {
			got, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if want := goldenPipelineDigests[s.name]; got != want {
				t.Fatalf("digest mismatch for %s:\n  got  %s\n  want %s", s.name, got, want)
			}
		})
	}
}

// TestFig5PipelineMatchesSerial compares the live pipelines head to head,
// with no recorded digests in between: the barrier-free pooled run served
// from the trace cache must equal the serial run that generates every
// trace from scratch, down to the last float64 bit. This covers both
// axes the tentpole changed — pooled-vs-serial scheduling and
// cached-vs-uncached trace generation.
func TestFig5PipelineMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Fig. 5 runs are expensive; skipped with -short")
	}
	p := Quick()
	serial, err := runFig5Serial(p, false)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunFig5(p, false)
	if err != nil {
		t.Fatal(err)
	}
	ds, dp := digestFig5(serial), digestFig5(pooled)
	if ds != dp {
		t.Fatalf("pooled+cached pipeline diverged from the serial reference:\n  serial %s\n  pooled %s", ds, dp)
	}
}

// runFig5Serial is the pre-pipeline Fig. 5 driver: every stage in
// sequence, every trace generated from scratch, barriers between stages.
// TestFig5PipelineMatchesSerial and BenchmarkFig5Serial use it as the
// reference the barrier-free pipeline must match bit-for-bit (and beat on
// wall-clock).
func runFig5Serial(p Preset, includeGrizzly bool) (*Fig5, error) {
	out := &Fig5{}
	for _, lf := range Fig5LargeFracs {
		label := fmt.Sprintf("large %.0f%%", lf*100)
		// Normalisation uses the +0 % trace, shared by the column; every
		// generation bypasses the cache, as the pre-pipeline code did.
		trace0, err := p.SyntheticTraceUncached(lf, 0)
		if err != nil {
			return nil, err
		}
		norm, err := p.BaselineNorm(trace0.Jobs, p.SystemNodes)
		if err != nil {
			return nil, err
		}
		for _, ov := range Fig5Overests {
			jobs := trace0.Jobs
			if ov != 0 {
				tr, err := p.SyntheticTraceUncached(lf, ov)
				if err != nil {
					return nil, err
				}
				jobs = tr.Jobs
			}
			g, err := p.ThroughputSweep(jobs, p.SystemNodes, norm, label, ov)
			if err != nil {
				return nil, err
			}
			out.Panels = append(out.Panels, g)
		}
	}
	if includeGrizzly {
		gs, err := p.GrizzlyGrid(Fig5Overests)
		if err != nil {
			return nil, err
		}
		out.Panels = append(out.Panels, gs...)
	}
	return out, nil
}

// BenchmarkFig5Serial is the reference point for the root package's
// BenchmarkFig5 at the same Bench preset: the serial driver that generates
// every trace from scratch. The BenchmarkFig5/BenchmarkFig5Serial ratio is
// the pipeline's speedup.
func BenchmarkFig5Serial(b *testing.B) {
	p := Bench()
	for i := 0; i < b.N; i++ {
		if _, err := runFig5Serial(p, false); err != nil {
			b.Fatal(err)
		}
	}
}
