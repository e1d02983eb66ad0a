package sweep

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunPreservesOrder(t *testing.T) {
	var tasks []Task[int]
	for i := 0; i < 100; i++ {
		i := i
		tasks = append(tasks, func() (int, error) { return i * i, nil })
	}
	results := Run(tasks)
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Value != i*i {
			t.Fatalf("result %d = %d, want %d", i, r.Value, i*i)
		}
	}
	vals, err := Values(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 100 || vals[7] != 49 {
		t.Fatalf("values broken: %v", vals[:8])
	}
}

func TestRunEmptyAndBounds(t *testing.T) {
	if got := Run[int](nil); len(got) != 0 {
		t.Fatal("empty task list produced results")
	}
	// A single task runs inline on the caller.
	results := Run([]Task[int]{func() (int, error) { return 7, nil }})
	if results[0].Value != 7 {
		t.Fatal("single task broken")
	}
}

func TestErrorsDoNotShortCircuit(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	tasks := []Task[int]{
		func() (int, error) { ran.Add(1); return 0, boom },
		func() (int, error) { ran.Add(1); return 2, nil },
		func() (int, error) { ran.Add(1); return 3, nil },
	}
	results := Run(tasks)
	if ran.Load() != 3 {
		t.Fatalf("ran %d tasks, want all 3", ran.Load())
	}
	if !errors.Is(FirstError(results), boom) {
		t.Fatalf("FirstError = %v", FirstError(results))
	}
	if _, err := Values(results); !errors.Is(err, boom) {
		t.Fatalf("Values err = %v", err)
	}
	if results[1].Value != 2 || results[2].Value != 3 {
		t.Fatal("later results lost after an error")
	}
}

func TestPanicBecomesError(t *testing.T) {
	tasks := []Task[string]{
		func() (string, error) { panic("kaboom") },
		func() (string, error) { return "fine", nil },
	}
	results := Run(tasks)
	if !errors.Is(results[0].Err, ErrPanic) {
		t.Fatalf("panic err = %v, want ErrPanic", results[0].Err)
	}
	if results[1].Value != "fine" {
		t.Fatal("sibling task lost")
	}
}

// Property: for any task count, each task runs exactly once and results
// align with inputs.
func TestQuickExactlyOnce(t *testing.T) {
	f := func(rawN uint8) bool {
		n := int(rawN) % 64
		counts := make([]atomic.Int32, n)
		tasks := make([]Task[int], n)
		for i := 0; i < n; i++ {
			i := i
			tasks[i] = func() (int, error) {
				counts[i].Add(1)
				return i, nil
			}
		}
		results := Run(tasks)
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
			if results[i].Value != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRunParallelism runs 16 CPU-bound tasks through Run on the
// shared pool.
func BenchmarkRunParallelism(b *testing.B) {
	work := func() (int, error) {
		s := 0
		for i := 0; i < 200000; i++ {
			s += i
		}
		return s, nil
	}
	tasks := make([]Task[int], 16)
	for i := range tasks {
		tasks[i] = work
	}
	for i := 0; i < b.N; i++ {
		Run(tasks)
	}
}
