// Command perfbench is the repository benchmark: it boots an in-process
// Propeller cluster over loopback TCP, preloads it from a seed, offers one
// named workload in an open loop and then a closed loop, checks every
// answer, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a separate traced run). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// setupRuns is how many times a timed run sets a cluster up; it reports
// the median and measures on the last one.
const setupRuns = 3

// quietWindow and quietQuantile set how the timed run reports latency
// (quietMedian): the 10th percentile of the open loop's per-second
// medians. Over six seeds each on a busy shared host, it spread 0.11-0.27
// from run to run where the pooled median spread 0.17-0.34. Capacity is
// the 90th percentile of the closed-loop slices' rates, likewise.
const (
	quietWindow   = time.Second
	quietQuantile = 0.1
)

// rounds is how many open-loop blocks and closed-loop slices a timed run
// alternates, so that the closed loop samples the shared host's speed
// across the whole run rather than in one stretch at its end.
const rounds = 10

// Phase ids keep write values of different phases apart.
const (
	phaseOpen = iota
	phaseClosed
	phaseTraced
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order, with a note per metric for the
// human-readable table.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// add records a metric. Values JSON cannot carry become 0: an empty
// sample (a layer the workload does not use) or a ratio with no base.
func (r *report) add(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

func (r *report) print(w io.Writer) {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-38s %16.4f %-6s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	commit   string
	digest   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: ingest, search or mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the preload and the op schedule")
	flag.IntVar(&o.seconds, "seconds", 50, "seconds of measured load")
	flag.IntVar(&o.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "commit of the code under test, for the run metadata")
	flag.StringVar(&o.digest, "source-digest", "unknown", "digest of the source tree, for the run metadata")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	meta := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"senders": numSenders(), "commit": o.commit, "source_digest": o.digest,
		"rate_ops_s": w.rate, "files": w.files, "group_size": w.groupSize,
		"nodes": w.nodes, "replication": w.replication, "pool_pages": w.poolPages,
	}
	d := newDataset(w, o.seed)
	var res result
	var rep *report
	if o.trace == 0 {
		rep, res, err = timedRun(w, d, o)
	} else {
		rep, res, err = tracedRun(w, d, o)
	}
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	mb, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mb)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// gateError reports the correctness violations a run found.
func gateError(m *model) error {
	if len(m.violations) == 0 {
		return nil
	}
	for i, v := range m.violations {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... %d more\n", len(m.violations)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "violation:", v)
	}
	return fmt.Errorf("%d correctness violations", len(m.violations))
}

// phaseDurations splits the measured seconds into an open-loop and a
// closed-loop share.
func phaseDurations(seconds int, openShare float64) (time.Duration, time.Duration) {
	total := time.Duration(seconds) * time.Second
	open := time.Duration(float64(total) * openShare)
	return open, total - open
}

func timedRun(w workload, d *dataset, o options) (*report, result, error) {
	ctx := context.Background()
	var setups []float64
	var h *harness
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		h, err = setup(ctx, w, d)
		if err != nil {
			return nil, result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			h.close()
		}
	}
	defer h.close()

	openDur, closedDur := phaseDurations(o.seconds, 0.8)
	m := newModel(d)
	dr := &opRunner{m: m, senders: h.senders}
	ops := openSchedule(d, o.seed, phaseOpen, openDur)
	streams := make([]*generator, len(h.senders))
	for s := range streams {
		streams[s] = newGenerator(d, o.seed, phaseClosed, s+1)
	}
	recs, crecs, rates := interleave(ops, openDur, streams, closedDur, len(h.senders), dr)

	checked, lost, err := m.audit(ctx, h.c)
	if err != nil {
		return nil, result{}, err
	}
	if err := gateError(m); err != nil {
		return nil, result{}, err
	}

	attempted, failed := len(ops), 0
	for _, r := range recs {
		if !r.ok {
			failed++
		}
	}
	completed := 0
	for s := range crecs {
		attempted += len(crecs[s])
		for _, r := range crecs[s] {
			if r.ok {
				completed++
			} else {
				failed++
			}
		}
	}
	if dr.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops failed, first: %v\n", dr.errCount, dr.firstErr)
	}

	rep := newReport()
	addLatency(rep, "write", ops, recs, func(k opKind) bool { return k == opWrite })
	addLatency(rep, "search", ops, recs, opKind.isSearch)
	rep.add("capacity_ops_s", "ops/s", quantile(rates, 1-quietQuantile),
		fmt.Sprintf("(p%.0f of %d slices' rates; %d ops by %d callers in %v)",
			(1-quietQuantile)*100, len(rates), completed, len(crecs), closedDur))
	rep.add("completed_frac", "ratio", float64(attempted-failed)/float64(attempted),
		fmt.Sprintf("(failed_frac %.6f: %d of %d ops failed; audit checked %d files, acked_lost %d)",
			float64(failed)/float64(attempted), failed, attempted, checked, lost))
	rep.add("heap_mb", "MiB", liveHeapMiB(), "(live heap after a forced GC, cluster up)")
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("(median of %d set-ups: %.3v)", len(setups), setups))
	return rep, result{Correct: true, Attempted: attempted, Failed: failed, Metrics: rep.metrics}, nil
}

// interleave runs the open-loop schedule ops, which spans openDur, and
// the closed-loop streams, for closedDur in all, as `rounds` open-loop
// blocks each followed by a closed-loop slice. It returns the open-loop
// records on the schedule's time axis, each caller's closed-loop records
// and the ops per second completed in each slice.
func interleave(ops []op, openDur time.Duration, streams []*generator, closedDur time.Duration, senders int, t target) ([]record, [][]record, []float64) {
	recs := make([]record, 0, len(ops))
	crecs := make([][]record, len(streams))
	var rates []float64
	for r := 1; r <= rounds; r++ {
		origin, end := openDur*time.Duration(r-1)/rounds, openDur*time.Duration(r)/rounds
		var block []op
		for i := len(recs); i < len(ops) && ops[i].at < end; i++ {
			o := ops[i]
			o.at -= origin
			block = append(block, o)
		}
		for _, rc := range runOpen(block, senders, t) {
			rc.sent += origin
			rc.done += origin
			recs = append(recs, rc)
		}
		slice, elapsed := runClosed(streams, closedDur/rounds, t)
		completed := 0
		for s := range slice {
			crecs[s] = append(crecs[s], slice[s]...)
			for _, rc := range slice[s] {
				if rc.ok {
					completed++
				}
			}
		}
		rates = append(rates, float64(completed)/elapsed.Seconds())
	}
	return recs, crecs, rates
}

// addLatency reports the median latency of the open-loop ops that keep
// selects over the run's quieter seconds (quietMedian) and notes the
// pooled median and tail. The tail is not gated: a slower spell on a
// shared 2-CPU host makes searches overlap more writes, so the p95 and p99
// move by a third or more from run to run where the median moves with the
// host's speed. The traced run reports them (e2e.*). A miss (+Inf) that
// lands on a percentile reports as the op timeout, the least time a miss
// took.
func addLatency(rep *report, kind string, ops []op, recs []record, keep func(opKind) bool) {
	xs := latencies(ops, recs, keep)
	n := len(xs)
	qm, nw := quietMedian(ops, recs, keep, quietWindow, quietQuantile)
	rep.add(kind+"_p50_us", "us", math.Min(qm, us(opTimeout)),
		fmt.Sprintf("(p%.0f of %d per-%v medians; pooled n=%d: p50 %.1fus; p95 %.1fus, %d beyond; p99 %.1fus, %d beyond)",
			quietQuantile*100, nw, quietWindow, n, cappedQuantile(xs, 0.5), cappedQuantile(xs, 0.95), beyond(n, 0.95),
			cappedQuantile(xs, 0.99), beyond(n, 0.99)))
}

func cappedQuantile(xs []float64, q float64) float64 { return math.Min(quantile(xs, q), us(opTimeout)) }

func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
