package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// leaseForever is the failure-detection timeout of replicated workloads:
// long enough in virtual time that no lease lapses and no node is swept
// during a run, while the control plane (shared-store mirroring, follower
// streaming) stays on.
const leaseForever = 10_000 * time.Hour

// numSenders is the size of the sender pool: nproc on the 2-CPU host the
// benchmark is sized for, and never more than the host has.
func numSenders() int { return min(2, runtime.NumCPU()) }

// sender is one load-generating goroutine's client. Its scratch fields
// carry an op's outcome from exec to after; only the sender's own
// goroutine touches them.
type sender struct {
	tenant string
	cl     *client.Client
	// bytes, tr and closers are set on traced senders only.
	bytes   *atomic.Int64
	tr      *tracer
	closers []*rpc.Client

	res   client.SearchResult
	probe probe
}

func (s *sender) close() {
	_ = s.cl.Close()
	for _, c := range s.closers {
		_ = c.Close()
	}
}

// harness is one booted, preloaded cluster and its senders.
type harness struct {
	w       workload
	d       *dataset
	c       *cluster.Cluster
	senders []*sender
	// tr and traced are set by addTracing.
	tr     *tracer
	traced []*sender
}

func tenant(s int) string { return "s" + strconv.Itoa(s) }

// setup boots a cluster for w, preloads d and commits it: boot, preload
// and the first full commit, everything up to the first timed op.
func setup(ctx context.Context, w workload, d *dataset) (*harness, error) {
	cfg := cluster.Config{IndexNodes: w.nodes, UseTCP: true, PoolPagesPerNode: w.poolPages}
	if w.replication > 1 {
		cfg.HeartbeatTimeout = leaseForever
		cfg.ReplicationFactor = w.replication
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	h := &harness{w: w, d: d, c: c}
	if err := h.load(ctx); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *harness) load(ctx context.Context) error {
	for s := 0; s < numSenders(); s++ {
		cl, err := h.c.NewClientWith(client.Config{ID: tenant(s)})
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		h.senders = append(h.senders, &sender{tenant: tenant(s), cl: cl})
	}
	first := h.senders[0].cl
	if err := first.CreateIndex(ctx, proto.IndexSpec{Name: indexSize, Type: proto.IndexBTree, Field: "size"}); err != nil {
		return err
	}
	if err := h.preload(ctx, first, indexSize); err != nil {
		return err
	}
	if h.w.hashIndex {
		if err := first.CreateIndex(ctx, proto.IndexSpec{Name: indexUID, Type: proto.IndexHash, Field: "uid"}); err != nil {
			return err
		}
		if err := h.preload(ctx, first, indexUID); err != nil {
			return err
		}
	}
	if h.w.replication > 1 {
		if err := h.seedFollowers(ctx); err != nil {
			return err
		}
	}
	// The other senders warm their placement caches by indexing the same
	// values again, so no timed op pays a master lookup.
	for _, s := range h.senders[1:] {
		if err := h.preload(ctx, s.cl, indexSize); err != nil {
			return err
		}
	}
	return h.commitAll(ctx, h.senders)
}

// preload indexes every file's preloaded value into idx, one batch per
// group.
func (h *harness) preload(ctx context.Context, cl *client.Client, idx string) error {
	d := h.d
	ups := make([]client.FileUpdate, 0, h.w.groupSize)
	for lo := 0; lo < h.w.files; lo += h.w.groupSize {
		ups = ups[:0]
		for f := int32(lo); int(f) < min(lo+h.w.groupSize, h.w.files); f++ {
			v := attr.Int(d.preloadSize(f))
			if idx == indexUID {
				v = attr.Int(int64(d.uid[f]))
			}
			ups = append(ups, client.FileUpdate{File: fileID(f), Value: v, GroupHint: d.group(f)})
		}
		if err := cl.Index(ctx, idx, ups); err != nil {
			return fmt.Errorf("preload %s: %w", idx, err)
		}
	}
	return nil
}

// seedFollowers runs heartbeat rounds until every group has a seeded
// follower.
func (h *harness) seedFollowers(ctx context.Context) error {
	for round := 0; round < 10; round++ {
		if err := h.c.Heartbeat(ctx); err != nil {
			return fmt.Errorf("heartbeat: %w", err)
		}
		st, err := h.c.Master().ClusterStats(ctx, proto.ClusterStatsReq{})
		if err != nil {
			return err
		}
		if st.ReplicatedGroups >= st.ACGs {
			return nil
		}
	}
	return errors.New("followers not seeded after 10 heartbeat rounds")
}

// commitAll runs one strict search per index from every sender: the first
// commits every group's lazy cache, and each warms its sender's search
// fan-out cache.
func (h *harness) commitAll(ctx context.Context, senders []*sender) error {
	probeFile := int32(0)
	for h.d.isScratch(probeFile) {
		probeFile++
	}
	for _, s := range senders {
		res, err := s.cl.Search(ctx, client.Query{Index: indexSize, Text: fmt.Sprintf("size=%d", h.d.preloadSize(probeFile))})
		if err != nil {
			return fmt.Errorf("first commit: %w", err)
		}
		if len(res.Files) != 1 || res.Files[0] != fileID(probeFile) {
			return fmt.Errorf("first commit: search for file %d returned %v", fileID(probeFile), res.Files)
		}
		if h.w.hashIndex {
			if _, err := s.cl.Search(ctx, client.Query{Index: indexUID, Text: "uid=0"}); err != nil {
				return fmt.Errorf("first commit: %w", err)
			}
		}
	}
	return nil
}

// addTracing builds traced senders next to the timed ones and warms them
// the same way.
func (h *harness) addTracing(ctx context.Context) error {
	tenants := make([]string, numSenders())
	for s := range tenants {
		tenants[s] = "traced-" + tenant(s)
	}
	h.tr = newTracer(tenants)
	traced, err := h.tr.tracedSenders(ctx, h.c, tenants)
	if err != nil {
		return err
	}
	h.traced = traced
	for _, s := range traced {
		if err := h.preload(ctx, s.cl, indexSize); err != nil {
			return err
		}
	}
	return h.commitAll(ctx, traced)
}

func (h *harness) close() {
	for _, s := range h.traced {
		s.close()
	}
	if h.tr != nil {
		h.tr.close()
	}
	for _, s := range h.senders {
		s.close()
	}
	_ = h.c.Close()
}

// opTrace is what a traced op measured besides its timing.
type opTrace struct {
	bytes  int64
	nodes  int
	commit time.Duration
}

// opRunner runs ops against a harness's senders and applies the gates.
type opRunner struct {
	m       *model
	senders []*sender
	// info is indexed by op id during a traced phase (nil otherwise).
	info []opTrace

	errMu    sync.Mutex
	errCount int
	firstErr error
}

func (dr *opRunner) exec(ctx context.Context, s int, o *op, id int) bool {
	sd := dr.senders[s]
	var b0 int64
	var t0 time.Duration
	if sd.tr != nil {
		sd.tr.current[sd.tenant].Store(int64(id))
		b0 = sd.bytes.Load()
		t0 = sd.tr.now()
	}
	var err error
	switch o.kind {
	case opWrite:
		dr.m.beginWrite(o.file)
		err = sd.cl.Index(ctx, indexSize, []client.FileUpdate{{File: fileID(o.file), Value: attr.Int(o.value)}})
	case opPoint:
		sd.probe = dr.m.beginProbe(o.file)
		sd.res, err = sd.cl.Search(ctx, client.Query{Index: indexSize, Text: "size=" + strconv.FormatInt(sd.probe.value, 10)})
	default:
		q := client.Query{Index: indexSize, Text: o.text}
		switch o.kind {
		case opHash:
			q.Index = indexUID
		case opBroad1:
			q.Limit = pageLimit
		case opBroad2:
			q.Limit, q.After, q.AfterSet = pageLimit, o.after, true
		}
		sd.res, err = sd.cl.Search(ctx, q)
	}
	if sd.tr != nil {
		t1 := sd.tr.now()
		sd.tr.current[sd.tenant].Store(-1)
		name := spanSearch
		if o.kind == opWrite {
			name = spanWrite
		}
		sd.tr.add(span{name: name, id: id, parent: -1, start: t0, end: t1})
		dr.info[id] = opTrace{bytes: sd.bytes.Load() - b0, nodes: sd.res.Nodes, commit: sd.res.CommitLatency}
	}
	if err != nil {
		dr.errMu.Lock()
		dr.errCount++
		if dr.firstErr == nil {
			dr.firstErr = fmt.Errorf("%s: %w", o.kind, err)
		}
		dr.errMu.Unlock()
	}
	return err == nil
}

func (dr *opRunner) after(s int, o *op, ok bool) {
	sd := dr.senders[s]
	switch {
	case o.kind == opWrite:
		dr.m.endWrite(o.file, o.value, ok)
	case !ok:
	case o.kind == opPoint:
		dr.m.endProbe(sd.probe, sd.res.Files)
	default:
		dr.m.checkAnswer(o, sd.res.Files, sd.res.More)
	}
	sd.res = client.SearchResult{}
}
