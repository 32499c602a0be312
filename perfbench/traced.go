package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/wal"
)

// snapshot is the cluster and process counters the per-layer metrics
// difference across the traced phase.
type snapshot struct {
	node    proto.NodeStatsResp // counters summed over nodes
	wal     wal.GroupCommitStats
	cache   client.CacheStats // summed over traced senders
	alloc   uint64
	gcs     uint32
	lookups int
}

func takeSnapshot(ctx context.Context, c *cluster.Cluster, senders []*sender, t *tracer) (snapshot, error) {
	var s snapshot
	for _, n := range c.Nodes() {
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			return s, err
		}
		s.node.Commits += st.Commits
		s.node.CommitEntries += st.CommitEntries
		s.node.CoalescedEntries += st.CoalescedEntries
		s.node.FollowerAppends += st.FollowerAppends
		s.node.UpdatesShed += st.UpdatesShed
		s.node.SearchesShed += st.SearchesShed
		s.node.LeaseRejects += st.LeaseRejects
		s.node.HashScanFallbacks += st.HashScanFallbacks
		s.node.PoolHits += st.PoolHits
		s.node.PoolMisses += st.PoolMisses
		ws := n.WALStats()
		s.wal.Batches += ws.Batches
		s.wal.Records += ws.Records
		s.wal.Bytes += ws.Bytes
	}
	for _, sd := range senders {
		cs := sd.cl.CacheStats()
		s.cache.MasterLookups += cs.MasterLookups
		s.cache.StalePlacementRetries += cs.StalePlacementRetries
		s.cache.OverloadRetries += cs.OverloadRetries
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.gcs = ms.TotalAlloc, ms.NumGC
	t.mu.Lock()
	s.lookups = len(t.lookups)
	t.mu.Unlock()
	return s, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// tracedRun sets a cluster up once, runs the open loop with the timed
// senders (the baseline of the tracing overhead, and of the harness's own
// lateness), then again with the traced senders, and reports the
// per-layer metrics of the traced phase.
func tracedRun(w workload, d *dataset, o options) (*report, result, error) {
	ctx := context.Background()
	runtime.GC()
	h, err := setup(ctx, w, d)
	if err != nil {
		return nil, result{}, fmt.Errorf("setup: %w", err)
	}
	defer h.close()
	if err := h.addTracing(ctx); err != nil {
		return nil, result{}, fmt.Errorf("tracing: %w", err)
	}

	baseDur, tracedDur := phaseDurations(o.seconds, 0.4)
	m := newModel(d)
	base := openSchedule(d, o.seed, phaseOpen, baseDur)
	baseRecs := runOpen(base, len(h.senders), &opRunner{m: m, senders: h.senders})

	ops := openSchedule(d, o.seed, phaseTraced, tracedDur)
	dr := &opRunner{m: m, senders: h.traced, info: make([]opTrace, len(ops))}
	t := h.tr
	before, err := takeSnapshot(ctx, h.c, h.traced, t)
	if err != nil {
		return nil, result{}, err
	}
	t.active.Store(true)
	recs := runOpen(ops, len(h.traced), dr)
	t.active.Store(false)
	after, err := takeSnapshot(ctx, h.c, h.traced, t)
	if err != nil {
		return nil, result{}, err
	}

	if _, _, err := m.audit(ctx, h.c); err != nil {
		return nil, result{}, err
	}
	if err := gateError(m); err != nil {
		return nil, result{}, err
	}
	attempted, failed := len(base)+len(ops), 0
	for _, r := range append(append([]record(nil), baseRecs...), recs...) {
		if !r.ok {
			failed++
		}
	}
	if dr.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d traced ops failed, first: %v\n", dr.errCount, dr.firstErr)
	}

	rep := newReport()
	layers(rep, h, ops, recs, dr.info, before, after)
	harnessMetrics(rep, base, baseRecs, ops, recs, attempted, failed)

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.tsv", w.name, o.seed))
	if err := t.writeSpans(path); err != nil {
		return nil, result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %s (%d)\n", path, len(t.spans))
	return rep, result{Correct: true, Attempted: attempted, Failed: failed, Metrics: rep.metrics}, nil
}

// layers derives the per-layer metrics of the traced phase.
func layers(rep *report, h *harness, ops []op, recs []record, info []opTrace, b, a snapshot) {
	t := h.tr
	// Join handler spans to their root ops. The handler that ended last is
	// an op's critical path: a search fans out to every node in parallel
	// and returns when the last one answers.
	root := make(map[int]span)
	last := make(map[int]span)
	for _, s := range t.spans {
		switch s.name {
		case spanWrite, spanSearch:
			root[s.id] = s
		case spanUpdate, spanSrch:
			if l, seen := last[s.parent]; s.parent >= 0 && (!seen || s.end > l.end) {
				last[s.parent] = s
			}
		}
	}
	var writeSpan, searchSpan, writeOver, searchOver, updates, searches []float64
	var writeBytes, searchBytes, nodes []float64
	var commitVirtual time.Duration
	nWrites, nSearches := 0, 0
	for i := range ops {
		if !recs[i].ok {
			continue
		}
		rs, ok := root[i]
		hs, hok := last[i]
		hd := hs.end - hs.start
		if ops[i].kind == opWrite {
			nWrites++
			writeBytes = append(writeBytes, float64(info[i].bytes))
			if ok && hok {
				writeSpan = append(writeSpan, us(rs.end-rs.start))
				writeOver = append(writeOver, us(rs.end-rs.start-hd))
				updates = append(updates, us(hd))
			}
			continue
		}
		nSearches++
		searchBytes = append(searchBytes, float64(info[i].bytes))
		nodes = append(nodes, float64(info[i].nodes))
		commitVirtual += info[i].commit
		if ok && hok {
			searchSpan = append(searchSpan, us(rs.end-rs.start))
			searchOver = append(searchOver, us(rs.end-rs.start-hd))
			searches = append(searches, us(hd))
		}
	}
	ops64 := float64(nWrites + nSearches)
	n := func(xs []float64) string { return fmt.Sprintf("(n=%d)", len(xs)) }

	rep.add("client.master_lookups", "count", float64(a.cache.MasterLookups-b.cache.MasterLookups), "(traced phase)")
	rep.add("client.retries", "count", float64(a.cache.StalePlacementRetries-b.cache.StalePlacementRetries+
		a.cache.OverloadRetries-b.cache.OverloadRetries), "(stale + overload)")
	rep.add("client.nodes_per_search", "count", mean(nodes), n(nodes))
	// Per op the client span is exactly the rpc overhead plus the handler;
	// the notes show how close the two medians come to the span's median.
	sumNote := func(span, over, hand []float64) string {
		sum := median(over) + median(hand)
		return fmt.Sprintf("%s (rpc + handler p50s = %.1fus, %+.1f%%)", n(span), sum, 100*(sum/median(span)-1))
	}
	rep.add("client.write_span_p50_us", "us", median(writeSpan), sumNote(writeSpan, writeOver, updates))
	rep.add("client.search_span_p50_us", "us", median(searchSpan), sumNote(searchSpan, searchOver, searches))

	rep.add("rpc.write_overhead_p50_us", "us", median(writeOver), "(client span - handler) "+n(writeOver))
	rep.add("rpc.write_overhead_p99_us", "us", quantile(writeOver, 0.99), n(writeOver))
	rep.add("rpc.search_overhead_p50_us", "us", median(searchOver), "(client span - last handler) "+n(searchOver))
	rep.add("rpc.bytes_per_write", "B", mean(writeBytes), "(wire bytes in + out) "+n(writeBytes))
	rep.add("rpc.bytes_per_search", "B", mean(searchBytes), "(wire bytes in + out) "+n(searchBytes))

	t.mu.Lock()
	codec := t.codec
	lookups := append([]float64(nil), t.lookups...)
	walDelta := t.walDelta
	t.mu.Unlock()
	for _, k := range []string{"update_req_marshal", "update_req_unmarshal", "search_resp_marshal", "search_resp_unmarshal"} {
		rep.add("proto."+k+"_ns", "ns", median(codec[k]), "(sampled) "+n(codec[k]))
	}
	parse := parseTimes(h.d, ops)
	rep.add("query.parse_us", "us", median(parse), n(parse))

	rep.add("master.lookup_calls", "count", float64(a.lookups-b.lookups), "(traced phase)")
	rep.add("master.lookup_p50_us", "us", median(lookups), "(set-up lookups) "+n(lookups))

	rep.add("indexnode.update_p50_us", "us", median(updates), n(updates))
	rep.add("indexnode.update_p99_us", "us", quantile(updates, 0.99), n(updates))
	rep.add("indexnode.search_p50_us", "us", median(searches), "(node answering last, per search) "+n(searches))
	rep.add("indexnode.search_p99_us", "us", quantile(searches, 0.99), n(searches))
	st, err := h.c.Master().ClusterStats(context.Background(), proto.ClusterStatsReq{})
	acgs := 0.0
	if err == nil {
		acgs = ratio(float64(st.ACGs), float64(len(st.Nodes)))
	}
	rep.add("indexnode.acgs_per_node", "count", acgs, "(primary groups)")
	dn := func(f func(proto.NodeStatsResp) int64) float64 { return float64(f(a.node) - f(b.node)) }
	commits := dn(func(s proto.NodeStatsResp) int64 { return s.Commits })
	entries := dn(func(s proto.NodeStatsResp) int64 { return s.CommitEntries })
	rep.add("indexnode.commit_entries_per_commit", "count", ratio(entries, commits), fmt.Sprintf("(%.0f commits)", commits))
	followerAppends := dn(func(s proto.NodeStatsResp) int64 { return s.FollowerAppends })
	rep.add("indexnode.coalesced_frac", "ratio",
		ratio(dn(func(s proto.NodeStatsResp) int64 { return s.CoalescedEntries }), float64(nWrites)+followerAppends),
		"(of entries acked by primaries and followers)")
	rep.add("indexnode.commit_virtual_us_per_search", "us", ratio(us(commitVirtual), float64(nSearches)), "(virtual time)")
	rep.add("indexnode.follower_appends_per_write", "count",
		ratio(followerAppends, float64(nWrites)), "")
	rep.add("indexnode.shed_frac", "ratio",
		ratio(dn(func(s proto.NodeStatsResp) int64 { return s.UpdatesShed + s.SearchesShed }), ops64), "")
	rep.add("indexnode.lease_rejects", "count", dn(func(s proto.NodeStatsResp) int64 { return s.LeaseRejects }), "")
	rep.add("indexnode.hash_scan_fallbacks", "count", dn(func(s proto.NodeStatsResp) int64 { return s.HashScanFallbacks }), "")

	walRecs := float64(a.wal.Records - b.wal.Records)
	rep.add("wal.bytes_per_entry", "B", ratio(float64(a.wal.Bytes-b.wal.Bytes), walRecs), fmt.Sprintf("(%.0f records)", walRecs))
	rep.add("wal.records_per_batch", "count", ratio(walRecs, float64(a.wal.Batches-b.wal.Batches)), "")

	mirrorBytes, mirrorRecs := 0, 0
	if sh := h.c.Shared(); sh != nil {
		for _, id := range sh.Groups() {
			_, walBytes, _ := sh.Load(id)
			mirrorBytes += len(walBytes)
			mirrorRecs += sh.WALRecords(id)
		}
	}
	rep.add("sharedstore.records_per_write", "count", mean(walDelta), "(sampled updates) "+n(walDelta))
	rep.add("sharedstore.bytes_per_entry", "B", ratio(float64(mirrorBytes), float64(mirrorRecs)),
		fmt.Sprintf("(%d mirrored records at end)", mirrorRecs))

	hits := dn(func(s proto.NodeStatsResp) int64 { return s.PoolHits })
	misses := dn(func(s proto.NodeStatsResp) int64 { return s.PoolMisses })
	rep.add("pagestore.hit_frac", "ratio", ratio(hits, hits+misses), fmt.Sprintf("(%.0f accesses)", hits+misses))
	rep.add("pagestore.misses_per_search", "count", ratio(misses, float64(nSearches)), "")

	rep.add("runtime.alloc_bytes_per_op", "B", ratio(float64(a.alloc-b.alloc), ops64), "(whole process)")
	rep.add("runtime.gc_cycles_per_kop", "count", ratio(float64(a.gcs-b.gcs)*1000, ops64), "")
}

// parseTimes times query.Parse on the traced phase's query texts, µs
// per parse.
func parseTimes(d *dataset, ops []op) []float64 {
	const reps = 8
	now := time.Now()
	var out []float64
	for i := range ops {
		text := ops[i].text
		switch ops[i].kind {
		case opWrite:
			continue
		case opPoint:
			text = "size=" + strconv.FormatInt(d.preloadSize(ops[i].file), 10)
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := query.Parse(text, now); err != nil {
				return nil
			}
		}
		out = append(out, us(time.Since(t0))/reps)
	}
	return out
}

// harnessMetrics reports, from the untraced baseline phase, the latency
// tails the timed run does not gate and the load generator's own
// behaviour, and the tracing overhead.
func harnessMetrics(rep *report, base []op, baseRecs []record, ops []op, recs []record, attempted, failed int) {
	for _, kind := range []string{"write", "search"} {
		isSearch := kind == "search"
		xs := latencies(base, baseRecs, func(k opKind) bool { return k.isSearch() == isSearch })
		for _, q := range []float64{0.95, 0.99} {
			rep.add(fmt.Sprintf("e2e.%s_p%.0f_us", kind, q*100), "us", cappedQuantile(xs, q),
				fmt.Sprintf("(timed senders; n=%d, %d beyond)", len(xs), beyond(len(xs), q)))
		}
	}
	late, wait := lateness(base, baseRecs)
	rep.add("bench.dispatch_late_p50_us", "us", median(late), "(idle senders) "+fmt.Sprintf("(n=%d)", len(late)))
	rep.add("bench.dispatch_late_p99_us", "us", quantile(late, 0.99), fmt.Sprintf("(n=%d)", len(late)))
	rep.add("bench.sender_wait_p99_us", "us", quantile(wait, 0.99), "(ops queued behind busy senders) "+fmt.Sprintf("(n=%d)", len(wait)))
	// The tracing overhead compares p50s per op type (writes and searches
	// differ by an order of magnitude), weighted by each type's share.
	overhead, note := 0.0, ""
	for _, isSearch := range []bool{false, true} {
		keep := func(k opKind) bool { return k.isSearch() == isSearch }
		tl, bl := latencies(ops, recs, keep), latencies(base, baseRecs, keep)
		if len(tl) == 0 || len(bl) == 0 {
			continue
		}
		tp50, bp50 := median(tl), median(bl)
		overhead += (tp50/bp50 - 1) * float64(len(tl)) / float64(len(ops))
		note += fmt.Sprintf(" %s traced p50 %.1fus vs timed %.1fus;", map[bool]string{false: "write", true: "search"}[isSearch], tp50, bp50)
	}
	rep.add("bench.trace_overhead_frac", "ratio", overhead, "("+strings.TrimSpace(note)+")")
	rep.add("bench.failed_frac", "ratio", ratio(float64(failed), float64(attempted)), fmt.Sprintf("(%d of %d)", failed, attempted))
}
