package main

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"propeller/internal/index"
)

func testWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestScheduleSeeded checks that the seed alone fixes the preload and the
// op schedules: the same seed gives identical inputs, another seed
// different ones.
func TestScheduleSeeded(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) (*dataset, []op, []op) {
			d := newDataset(w, seed)
			g := newGenerator(d, seed, phaseClosed, 1)
			closed := make([]op, 200)
			for i := range closed {
				closed[i] = g.next()
			}
			return d, openSchedule(d, seed, phaseOpen, 2*time.Second), closed
		}
		d1, open1, closed1 := gen(7)
		d2, open2, closed2 := gen(7)
		if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(open1, open2) || !reflect.DeepEqual(closed1, closed2) {
			t.Errorf("%s: seed 7 gave two different inputs", w.name)
		}
		d3, open3, closed3 := gen(8)
		if reflect.DeepEqual(d1.sizeRank, d3.sizeRank) || reflect.DeepEqual(open1, open3) || reflect.DeepEqual(closed1, closed3) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
		if len(open1) == 0 {
			t.Errorf("%s: empty schedule", w.name)
		}
	}
}

type noopTarget struct{}

func (noopTarget) exec(context.Context, int, *op, int) bool { return true }
func (noopTarget) after(int, *op, bool)                     {}

// TestDispatcherLateness drives a no-op target at the ingest rate: with
// nothing else running, the dispatcher must send ops far closer to their
// intended time than the latencies it measures (a single-entry write
// takes about 175 µs at p50 on a 2-CPU host). The p99 is logged but not
// gated: on an idle 2-vCPU VM about one op in a hundred is sent 0.05-2 ms
// late, however the dispatcher waits, because a halted vCPU takes that
// long to wake. Other load on the host delays the dispatcher too, so run
// it on an idle one.
func TestDispatcherLateness(t *testing.T) {
	w := testWorkload(t, "ingest")
	d := newDataset(w, 1)
	ops := openSchedule(d, 1, phaseOpen, 4*time.Second)
	recs := runOpen(ops, numSenders(), noopTarget{})
	late, wait := lateness(ops, recs)
	p50, p90, p99 := quantile(late, 0.5), quantile(late, 0.9), quantile(late, 0.99)
	t.Logf("%d ops at %.0f/s: dispatch lateness p50 %.1fus p90 %.1fus p99 %.1fus, %d ops waited for a sender",
		len(ops), w.rate, p50, p90, p99, len(wait))
	if p50 > 175.0/10 || p90 > 175.0/2 {
		t.Errorf("dispatch lateness p50 %.1fus p90 %.1fus, want well below 175us", p50, p90)
	}
}

type sleepTarget struct{ d time.Duration }

func (t sleepTarget) exec(context.Context, int, *op, int) bool { time.Sleep(t.d); return true }
func (sleepTarget) after(int, *op, bool)                       {}

// TestInterleave checks that the alternating rounds run every scheduled
// op once, keep the open-loop records on the schedule's time axis and
// measure one closed-loop rate per slice.
func TestInterleave(t *testing.T) {
	w := testWorkload(t, "mixed")
	d := newDataset(w, 1)
	openDur := 2 * time.Second
	ops := openSchedule(d, 1, phaseOpen, openDur)
	streams := []*generator{newGenerator(d, 1, phaseClosed, 1), newGenerator(d, 1, phaseClosed, 2)}
	recs, crecs, rates := interleave(ops, openDur, streams, 200*time.Millisecond, 2, sleepTarget{time.Millisecond})
	if len(recs) != len(ops) || len(crecs) != 2 || len(rates) != rounds {
		t.Fatalf("%d records for %d ops, %d callers, %d rates", len(recs), len(ops), len(crecs), len(rates))
	}
	for i, r := range recs {
		if r.sent < ops[i].at || r.done < r.sent || r.done > ops[i].at+100*time.Millisecond {
			t.Fatalf("op %d due at %v: sent %v, done %v", i, ops[i].at, r.sent, r.done)
		}
	}
	for i, rate := range rates {
		if rate <= 0 {
			t.Errorf("slice %d: %.0f ops/s", i, rate)
		}
	}
}

// TestQuietMedian checks the latency estimator: a slow spell over a few
// windows leaves it alone, a uniform slowdown moves it in full, a failed
// op counts as a miss and windows without matching ops are skipped.
func TestQuietMedian(t *testing.T) {
	var ops []op
	var recs []record
	add := func(kind opKind, at, lat time.Duration, ok bool) {
		ops = append(ops, op{at: at, kind: kind})
		recs = append(recs, record{done: at + lat, ok: ok})
	}
	for w := 0; w < 20; w++ {
		lat := 100 * time.Microsecond
		if w >= 15 { // a slow spell over a quarter of the run
			lat *= 10
		}
		for i := 0; i < 9; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*100*time.Millisecond
			add(opWrite, at, lat+time.Duration(i)*time.Microsecond, i != 8)
		}
	}
	add(opPoint, 25*time.Second, time.Millisecond, true)
	isWrite := func(k opKind) bool { return k == opWrite }
	got, n := quietMedian(ops, recs, isWrite, time.Second, 0.1)
	if got != 104 || n != 20 {
		t.Errorf("quietMedian = %v over %d windows, want 104 over 20", got, n)
	}
	for i := range recs {
		recs[i].done += recs[i].done - ops[i].at // every op twice as slow
	}
	if got, _ := quietMedian(ops, recs, isWrite, time.Second, 0.1); got != 208 {
		t.Errorf("after a uniform slowdown quietMedian = %v, want 208", got)
	}
	for i := range recs {
		if ops[i].kind == opWrite && ops[i].at%time.Second < 500*time.Millisecond {
			recs[i].ok = false // five of nine ops per window miss
		}
	}
	if got, _ := quietMedian(ops, recs, isWrite, time.Second, 0.1); !math.IsInf(got, 1) {
		t.Errorf("with most ops missing quietMedian = %v, want +Inf", got)
	}
	if got, n := quietMedian(ops, recs, opKind.isSearch, time.Second, 0.1); got != 2000 || n != 1 {
		t.Errorf("searches: quietMedian = %v over %d windows, want 2000 over 1", got, n)
	}
}

// TestExpectedAnswers checks the answer checker against a brute-force
// scan of the preload.
func TestExpectedAnswers(t *testing.T) {
	w := testWorkload(t, "search")
	w.files, w.groupSize = 2000, 100
	d := newDataset(w, 3)
	brute := func(match func(f int32) bool) []index.FileID {
		var out []index.FileID
		for f := int32(0); int(f) < w.files; f++ {
			if match(f) {
				out = append(out, fileID(f))
			}
		}
		return out
	}
	inRange := func(lo, span int32) func(int32) bool {
		return func(f int32) bool {
			r := d.sizeRank[f]
			return !d.isScratch(f) && r >= lo && r < lo+span
		}
	}
	g := newGenerator(d, 3, phaseOpen, 0)
	seen := map[opKind]bool{}
	for i := 0; i < 2000; i++ {
		o := g.next()
		seen[o.kind] = true
		got, more := d.expected(&o)
		var want []index.FileID
		wantMore := false
		switch o.kind {
		case opWrite, opPoint:
			continue
		case opEq:
			want = brute(func(f int32) bool { return d.preloadSize(f) == d.preloadSize(o.file) })
		case opNarrow:
			want = brute(inRange(o.lo, narrowSpan))
		case opBroad1, opBroad2:
			all := brute(inRange(o.lo, int32(w.files/broadShare)))
			if o.kind == opBroad2 {
				if all[pageLimit-1] != o.after {
					t.Fatalf("broad2 cursor %d, want %d", o.after, all[pageLimit-1])
				}
				all = all[pageLimit:]
			}
			want, wantMore = all[:pageLimit], len(all) > pageLimit
		case opHash:
			want = brute(func(f int32) bool { return d.uid[f] == o.lo })
		}
		if !equalIDs(got, want) || more != wantMore {
			t.Fatalf("%s %q: expected() = %v more=%v, brute force %v more=%v", o.kind, o.text, got, more, want, wantMore)
		}
	}
	for _, k := range []opKind{opWrite, opEq, opNarrow, opBroad1, opBroad2, opHash} {
		if !seen[k] {
			t.Errorf("search mix never drew %s", k)
		}
	}
}

// TestReadYourWritesGate checks when the gate must and must not flag a
// point search that misses the file.
func TestReadYourWritesGate(t *testing.T) {
	w := testWorkload(t, "mixed")
	w.files = 10
	d := newDataset(w, 1)
	miss := []index.FileID(nil)

	m := newModel(d)
	m.endProbe(m.beginProbe(3), miss)
	if len(m.violations) != 1 {
		t.Fatalf("a missed preloaded file: %d violations, want 1", len(m.violations))
	}

	m = newModel(d)
	m.beginWrite(3)
	m.endWrite(3, writeBase+1, true)
	p := m.beginProbe(3)
	if p.value != writeBase+1 || !p.eligible {
		t.Fatalf("after a clean ack: probe %+v", p)
	}
	m.endProbe(p, []index.FileID{fileID(3)})
	m.endProbe(p, []index.FileID{fileID(3), fileID(4)})
	if len(m.violations) != 1 {
		t.Fatalf("found / found plus a stranger: %d violations, want 1", len(m.violations))
	}

	// A write sent before the search completed excuses a miss.
	m = newModel(d)
	p = m.beginProbe(3)
	m.beginWrite(3)
	m.endProbe(p, miss)
	m.endWrite(3, writeBase+2, true)
	// Overlapping writes may apply in either order, and a failed write may
	// or may not have applied: neither leaves a settled value.
	m.beginWrite(5)
	m.beginWrite(5)
	m.endWrite(5, writeBase+3, true)
	m.endWrite(5, writeBase+4, true)
	m.beginWrite(6)
	m.endWrite(6, writeBase+5, false)
	for _, f := range []int32{5, 6} {
		if p := m.beginProbe(f); p.eligible {
			t.Errorf("file %d: probe %+v eligible", f, p)
		}
	}
	if len(m.violations) != 0 {
		t.Fatalf("excused misses flagged: %v", m.violations)
	}
	possible := append([]int64(nil), m.files[5].possible...)
	sort.Slice(possible, func(i, j int) bool { return possible[i] < possible[j] })
	if !reflect.DeepEqual(possible, []int64{d.preloadSize(5), writeBase + 3, writeBase + 4}) {
		t.Errorf("file 5 possible values %v", possible)
	}
}
