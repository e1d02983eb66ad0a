package memtrace

import (
	"math"
	"math/rand"
	"testing"
)

// rdpMarkRef is rdpMark without the filter: every interior point's
// deviation goes through the division. It is the oracle the filtered scan
// must match point for point.
func rdpMarkRef(pts []Point, lo, hi int, eps float64, keep []bool) {
	type span struct{ lo, hi int }
	stack := []span{{lo, hi}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		a, b := pts[s.lo], pts[s.hi]
		dt := b.T - a.T
		var worst float64
		worstIdx := -1
		for i := s.lo + 1; i < s.hi; i++ {
			// Interpolated value of the chord at pts[i].T.
			y := float64(a.MB) + (float64(b.MB)-float64(a.MB))*(pts[i].T-a.T)/dt
			d := float64(pts[i].MB) - y
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
				worstIdx = i
			}
		}
		if worst > eps && worstIdx >= 0 {
			keep[worstIdx] = true
			stack = append(stack, span{s.lo, worstIdx}, span{worstIdx, s.hi})
		}
	}
}

// rdpKeep runs one marking scan over the whole of pts.
func rdpKeep(pts []Point, eps float64, mark func([]Point, int, int, float64, []bool)) []bool {
	keep := make([]bool, len(pts))
	keep[0], keep[len(pts)-1] = true, true
	if len(pts) > 2 {
		mark(pts, 0, len(pts)-1, eps, keep)
	}
	return keep
}

// checkRDPMatchesRef fails t unless the filtered and reference scans keep
// the same points of pts at eps.
func checkRDPMatchesRef(t *testing.T, pts []Point, eps float64) {
	t.Helper()
	want := rdpKeep(pts, eps, rdpMarkRef)
	got := rdpKeep(pts, eps, rdpMark)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("eps %g: point %d (%+v) kept=%v, reference kept=%v", eps, i, pts[i], got[i], want[i])
		}
	}
}

// ldmsShape is a usage series shaped like the Grizzly generator's: a
// mean-reverting walk around a base level with one peak phase.
func ldmsShape(rng *rand.Rand, n int, peak int64) []Point {
	base := float64(peak) * (0.1 + 0.25*rng.Float64())
	peakStart := rng.Intn(n)
	peakLen := 1 + rng.Intn(n/4+1)
	pts := make([]Point, n)
	level := base
	for i := range pts {
		if i >= peakStart && i < peakStart+peakLen {
			level = float64(peak)
		} else {
			level += (base - level) * 0.1
			level += base * 0.05 * rng.NormFloat64()
			level = math.Min(math.Max(level, 1), float64(peak))
		}
		pts[i] = Point{T: float64(i) * 10, MB: int64(level)}
	}
	return pts
}

func TestRDPMatchesReferenceAdversarial(t *testing.T) {
	const big = int64(1) << 53
	cases := map[string]func() []Point{
		"collinear": func() []Point {
			pts := make([]Point, 1000)
			for i := range pts {
				pts[i] = Point{T: float64(i) * 0.1, MB: int64(i) * 7}
			}
			return pts
		},
		"collinear-irregular-times": func() []Point {
			pts := make([]Point, 500)
			tm := 0.0
			for i := range pts {
				tm += 0.1 + float64(i%7)*1e-3
				pts[i] = Point{T: tm, MB: int64(tm * 3e6)}
			}
			return pts
		},
		"equal-spikes": func() []Point {
			pts := make([]Point, 64)
			for i := range pts {
				pts[i] = Point{T: float64(i), MB: 1000}
				if i%8 == 3 {
					pts[i].MB = 5000 // every spike deviates equally: first one wins
				}
			}
			return pts
		},
		"equal-dips-and-spikes": func() []Point {
			pts := make([]Point, 41)
			for i := range pts {
				pts[i] = Point{T: float64(i) * 10, MB: 500}
				switch i % 10 {
				case 2:
					pts[i].MB = 900
				case 7:
					pts[i].MB = 100
				}
			}
			return pts
		},
		"mb-near-2^53": func() []Point {
			rng := rand.New(rand.NewSource(1))
			pts := make([]Point, 300)
			for i := range pts {
				pts[i] = Point{T: float64(i), MB: big - 4096 + rng.Int63n(8192)}
			}
			return pts
		},
		"mb-near-2^62": func() []Point {
			rng := rand.New(rand.NewSource(2))
			pts := make([]Point, 300)
			for i := range pts {
				pts[i] = Point{T: float64(i), MB: 1<<62 + rng.Int63n(1<<40)}
			}
			return pts
		},
		"time-offset-1e9": func() []Point {
			rng := rand.New(rand.NewSource(3))
			pts := make([]Point, 400)
			for i := range pts {
				// Steps of a few ulps at 1e9 s: every u and dt is rounded.
				pts[i] = Point{T: 1e9 + float64(i)*3e-7, MB: 1000 + rng.Int63n(50)}
			}
			return pts
		},
		"steep-step": func() []Point {
			pts := make([]Point, 200)
			for i := range pts {
				pts[i] = Point{T: float64(i) * 1e-9, MB: 3}
				if i >= 100 {
					pts[i].MB = 1 << 50
				}
			}
			return pts
		},
		"steep-ramp-then-flat": func() []Point {
			pts := make([]Point, 200)
			for i := range pts {
				pts[i] = Point{T: 1e6 + float64(i), MB: big}
				if i < 3 {
					pts[i].MB = int64(i) << 40
				}
			}
			return pts
		},
		"huge-time-span": func() []Point {
			// dMB·u overflows at the third point, whose exact deviation
			// (+Inf) beats the second's though its cheap value does not,
			// so the filter must stand aside.
			return []Point{{T: 0, MB: 0}, {T: 1, MB: 1 << 62}, {T: 1e300, MB: 1 << 62}, {T: 1.5e300, MB: 1 << 62}}
		},
		"ldms": func() []Point { return ldmsShape(rand.New(rand.NewSource(4)), 20000, 64<<10) },
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			pts := mustTrace(t, mk()).Points()
			for _, eps := range []float64{1e-300, 0.5, 1, 37, 1e4, 1e12, math.Inf(1)} {
				checkRDPMatchesRef(t, pts, eps)
			}
		})
	}
}

func TestRDPMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(300)
		pts := ldmsShape(rng, n, 1+rng.Int63n(1<<40))
		tm := rng.Float64() * 1e6
		for i := range pts {
			tm += 1e-3 + rng.Float64()*30
			pts[i].T = tm
		}
		checkRDPMatchesRef(t, mustTrace(t, pts).Points(), rng.ExpFloat64()*1000)
	}
}

// FuzzRDPMatchesReference builds a valid trace from the fuzzer's bytes:
// each 6-byte record is a time step (2 bytes, in units of tStep after t0)
// and a memory offset above mbBase (4 bytes), up to 4096 points, which
// keeps the quadratic worst case of both scans short. The filtered scan
// must keep exactly the reference scan's points.
func FuzzRDPMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 0, 5, 0, 0, 0, 1, 0, 0, 0, 0, 0}, 0.0, 10.0, int64(0), 1.0)
	f.Fuzz(func(t *testing.T, data []byte, t0, tStep float64, mbBase int64, eps float64) {
		if !(t0 >= 0) || math.IsInf(t0, 0) || !(tStep > 0) || math.IsInf(tStep, 0) {
			return
		}
		if mbBase < 0 || mbBase > math.MaxInt64-math.MaxUint32 {
			return
		}
		var pts []Point
		var ticks float64
		for ; len(data) >= 6 && len(pts) < 4096; data = data[6:] {
			ticks += float64(uint16(data[0])|uint16(data[1])<<8) + 1
			mb := int64(uint32(data[2]) | uint32(data[3])<<8 | uint32(data[4])<<16 | uint32(data[5])<<24)
			pts = append(pts, Point{T: t0 + ticks*tStep, MB: mbBase + mb})
		}
		if len(pts) < 3 {
			return
		}
		if _, err := New(pts); err != nil {
			return // time steps rounded together
		}
		checkRDPMatchesRef(t, pts, eps)
	})
}

// BenchmarkRDP times the marking scan over Grizzly-shaped usage series
// (20,000 samples, the generator's cap) at the generator's 2 % of peak
// tolerance: the reference divides per point, the filtered scan divides
// only for points that can become the span's worst.
func BenchmarkRDP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const peak = 96 << 10
	var traces [][]Point
	for k := 0; k < 8; k++ {
		traces = append(traces, ldmsShape(rng, 20000, peak))
	}
	for _, c := range []struct {
		name string
		mark func([]Point, int, int, float64, []bool)
	}{{"reference", rdpMarkRef}, {"filtered", rdpMark}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rdpKeep(traces[i%len(traces)], 0.02*peak, c.mark)
			}
		})
	}
}
