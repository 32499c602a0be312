package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// spinWindow is how long before an op is due the dispatcher stops
// sleeping and starts spinning: a single time.Sleep overshoots by about
// 0.9 ms on a 2-CPU host, so sleeping to the due time would make the
// harness, not the system, set sub-millisecond latencies.
const spinWindow = 1500 * time.Microsecond

// target is what the load generator drives.
type target interface {
	// exec runs op o (id identifies it within its phase) on behalf of
	// sender s and reports whether it succeeded. It returns once the op
	// has completed.
	exec(ctx context.Context, s int, o *op, id int) bool
	// after runs once the op's completion time is taken: checks that
	// must not count against the op's latency go here.
	after(s int, o *op, ok bool)
}

// record is the timing of one executed op, as offsets from the phase start.
type record struct {
	// sent is when a sender handed the op to the client, done when the
	// client returned.
	sent, done time.Duration
	// idle: a sender took the op before it fell due, so sent-at is the
	// harness's own lateness rather than a wait for a busy sender.
	idle bool
	ok   bool
}

// waitUntil sleeps until spinWindow before t, then spins, yielding the
// processor to the system under test on every iteration.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpen replays a schedule with a bounded pool of senders. An idle
// sender takes the next op, waits until it is due and sends it, so an op
// that finds every sender busy waits in line and that wait counts against
// the system. The senders pass a dispatch token: only its holder takes an
// op and waits for it, and it hands the token on once the op is due. A
// second sender waiting on its own timer would be starved while the
// holder spins, because a spinning processor does not run the expired
// timers of an idle one.
func runOpen(ops []op, senders int, t target) []record {
	recs := make([]record, len(ops))
	var token sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				token.Lock()
				i := next
				if i == len(ops) {
					token.Unlock()
					return
				}
				next++
				r := &recs[i]
				due := start.Add(ops[i].at)
				r.idle = time.Now().Before(due)
				waitUntil(due)
				token.Unlock()
				r.sent = time.Since(start)
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				r.ok = t.exec(ctx, s, &ops[i], i)
				cancel()
				r.done = time.Since(start)
				t.after(s, &ops[i], r.ok)
			}
		}(s)
	}
	wg.Wait()
	return recs
}

// runClosed runs one caller per stream, each issuing its ops back to back
// until dur has passed. It returns every caller's records and the elapsed
// time.
func runClosed(streams []*generator, dur time.Duration, t target) ([][]record, time.Duration) {
	recs := make([][]record, len(streams))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for s, g := range streams {
		wg.Add(1)
		go func(s int, g *generator) {
			defer wg.Done()
			for id := 0; time.Now().Before(deadline); id++ {
				o := g.next()
				r := record{sent: time.Since(start)}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				r.ok = t.exec(ctx, s, &o, id)
				cancel()
				r.done = time.Since(start)
				t.after(s, &o, r.ok)
				recs[s] = append(recs[s], r)
			}
		}(s, g)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// latencies returns, for ops matching keep, the latency from intended
// arrival (ops[i].at) to completion; a failed op is a miss (+Inf).
func latencies(ops []op, recs []record, keep func(opKind) bool) []float64 {
	var out []float64
	for i := range ops {
		if !keep(ops[i].kind) {
			continue
		}
		if !recs[i].ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, us(recs[i].done-ops[i].at))
	}
	return out
}

// quietMedian splits the ops that keep selects into windows of length
// span by intended arrival, takes each window's median latency (a miss is
// +Inf) and returns the q-quantile of those medians, with the number of
// windows: the median latency of the run's quieter windows. The host is
// shared, and its speed for a fixed amount of CPU work swings twofold
// within a minute. A slow spell raises the windows it covers and moves
// this figure only once it covers more than 1-q of them, where it would
// shift the pooled median by its whole share of the samples.
func quietMedian(ops []op, recs []record, keep func(opKind) bool, span time.Duration, q float64) (float64, int) {
	var windows [][]float64
	for i := range ops {
		if !keep(ops[i].kind) {
			continue
		}
		w := int(ops[i].at / span)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		lat := math.Inf(1)
		if recs[i].ok {
			lat = us(recs[i].done - ops[i].at)
		}
		windows[w] = append(windows[w], lat)
	}
	var meds []float64
	for _, xs := range windows {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return quantile(meds, q), len(meds)
}

// lateness splits the harness's own delay from the system's backlog: for
// ops that found a sender free, how late they were sent; for the others,
// how long they waited for a busy sender.
func lateness(ops []op, recs []record) (late, wait []float64) {
	for i := range ops {
		d := us(recs[i].sent - ops[i].at)
		if recs[i].idle {
			late = append(late, d)
		} else {
			wait = append(wait, d)
		}
	}
	return late, wait
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of xs (sorted in place); NaN
// when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is how many of n samples lie past the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }
