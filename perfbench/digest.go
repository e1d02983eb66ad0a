package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"

	"dismem/internal/core"
	"dismem/internal/experiments"
)

// digest hashes typed fields in a fixed order; floats enter by bit
// pattern, so any change in any computed value changes the digest.
type digest struct{ h hash.Hash }

func newDigest(domain string) *digest {
	d := &digest{h: sha256.New()}
	d.str(domain)
	return d
}

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}
func (d *digest) int(v int64)     { d.u64(uint64(v)) }
func (d *digest) float(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)    { d.int(int64(len(s))); d.h.Write([]byte(s)) }
func (d *digest) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}
func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// resultDigest covers every field of a simulation Result, including each
// job record and attempt.
func resultDigest(r *core.Result) string {
	d := newDigest("perfbench/result/v1")
	d.str(r.Policy)
	d.bool(r.Infeasible)
	d.int(int64(r.InfeasibleJob))
	d.float(r.Makespan)
	for _, v := range []int{r.Completed, r.TimedOut, r.Abandoned, r.OOMKills, r.PeakQueue, r.Nodes} {
		d.int(int64(v))
	}
	d.float(r.AllocMBSeconds)
	d.float(r.UsedMBSeconds)
	d.float(r.BusyNodeSeconds)
	d.int(r.TotalCapacityMB)
	d.int(int64(len(r.Records)))
	for i := range r.Records {
		rec := &r.Records[i]
		d.int(int64(rec.Job.ID))
		d.int(int64(rec.Outcome))
		d.float(rec.Submit)
		d.float(rec.FirstStart)
		d.float(rec.LastStart)
		d.float(rec.Finish)
		d.int(int64(rec.Restarts))
		d.int(int64(len(rec.Attempts)))
		for _, a := range rec.Attempts {
			d.float(a.Start)
			d.float(a.End)
			d.int(int64(a.How))
		}
	}
	return d.sum()
}

// headlinesDigest covers every value of a Headlines result.
func headlinesDigest(h *experiments.Headlines) string {
	d := newDigest("perfbench/headlines/v1")
	d.int(int64(h.Seeds))
	for _, s := range []experiments.Stat{h.ThroughputGainPts, h.TPDGainFrac, h.MedianRespReduct, h.MemorySavingPoints} {
		d.float(s.Mean)
		d.float(s.Stdev)
		d.int(int64(s.N))
	}
	return d.sum()
}

// bodiesDigest hashes a sequence of response bodies.
func bodiesDigest(bodies [][]byte) string {
	d := newDigest("perfbench/bodies/v1")
	for _, b := range bodies {
		d.str(string(b))
	}
	return d.sum()
}

//go:embed refs.json
var refsJSON []byte

// refs maps "<workload>/<input>" to the reference digest of that input's
// output, recorded with -record and kept in refs.json.
type refs map[string]string

func loadRefs() (refs, error) {
	r := refs{}
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %v", err)
	}
	return r, nil
}

func refKey(workload string, input int) string { return fmt.Sprintf("%s/%d", workload, input) }

// check compares got with the recorded reference for key. A missing
// reference is an error: an unchecked output must not pass.
func (r refs) check(key, got string) error {
	want, ok := r[key]
	if !ok {
		return fmt.Errorf("no reference digest for %s (record with -record)", key)
	}
	if got != want {
		return fmt.Errorf("output digest mismatch for %s: got %s want %s", key, got, want)
	}
	return nil
}

// writeRefs writes r to path, one key per line in sorted order.
func writeRefs(path string, r refs) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
