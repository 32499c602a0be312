package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/indexnode"
	"propeller/internal/master"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/sharedstore"
)

// Span names. Root spans are client calls made by a sender; handler spans
// are index node and master methods timed by the benchmark's own servers.
const (
	spanWrite  = "client.index"
	spanSearch = "client.search"
	spanUpdate = "indexnode.update"
	spanSrch   = "indexnode.search"
	spanLookup = "master.lookup"
)

// codecSampleEvery sets how often a handler wrapper times the proto codec
// on the request and response it just served.
const codecSampleEvery = 8

// span is one timed interval. parent is the root op's id for handler
// spans and -1 for root spans and for calls outside a timed phase.
type span struct {
	name       string
	id, parent int
	start, end time.Duration
}

// tracer times calls into the cluster's layers from outside the program:
// the traced clients dial rpc.Servers owned by the benchmark, which
// register the cluster's own node and master methods behind timing
// wrappers. Each sender's client carries its own tenant ID, and the
// sender publishes the id of the op it is running under that tenant, so
// a handler span finds its root op.
type tracer struct {
	start  time.Time
	active atomic.Bool

	// current maps a tenant to the id of the op its sender is running
	// (-1 when idle). The map is fixed before the traced phase.
	current map[string]*atomic.Int64

	mu       sync.Mutex
	spans    []span
	codec    map[string][]float64 // proto timing samples, ns
	lookups  []float64            // master lookup durations, µs
	walDelta []float64            // shared-store records mirrored per traced update
	acgs     map[proto.ACGID]*acgTrack

	calls   atomic.Int64 // handler calls, for codec sampling
	servers []*rpc.Server
}

// acgTrack detects overlapping updates of one group, whose shared-store
// record deltas cannot be attributed to a single write.
type acgTrack struct {
	inflight int
	entered  uint64
}

func newTracer(tenants []string) *tracer {
	t := &tracer{
		start:   time.Now(),
		current: make(map[string]*atomic.Int64),
		codec:   make(map[string][]float64),
		acgs:    make(map[proto.ACGID]*acgTrack),
	}
	for _, tn := range tenants {
		v := new(atomic.Int64)
		v.Store(-1)
		t.current[tn] = v
	}
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.start) }

func (t *tracer) parentOf(tenant string) int {
	if v := t.current[tenant]; v != nil {
		return int(v.Load())
	}
	return -1
}

func (t *tracer) add(s span) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) sample(name string, ns float64) {
	t.mu.Lock()
	t.codec[name] = append(t.codec[name], ns)
	t.mu.Unlock()
}

// wireMsg is a proto message with the binary wire codec.
type wireMsg[T any] interface {
	*T
	MarshalWire([]byte) []byte
	UnmarshalWire([]byte) error
}

// codecNs times MarshalWire and UnmarshalWire of v, averaged over a few
// repetitions so the clock's resolution does not dominate.
func codecNs[T any, P wireMsg[T]](v P) (marshal, unmarshal float64) {
	const reps = 8
	buf := v.MarshalWire(nil)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		buf = v.MarshalWire(buf[:0])
	}
	t1 := time.Now()
	for i := 0; i < reps; i++ {
		var out T
		if err := P(&out).UnmarshalWire(buf); err != nil {
			return 0, 0
		}
	}
	t2 := time.Now()
	return float64(t1.Sub(t0)) / reps, float64(t2.Sub(t1)) / reps
}

func (t *tracer) sampleCodec() bool {
	return t.active.Load() && t.calls.Add(1)%codecSampleEvery == 0
}

// enterACG and exitACG bracket a traced update of group id: exitACG
// keeps the shared-store record delta only when no other traced update
// of the group overlapped it and no checkpoint truncated the mirror.
func (t *tracer) enterACG(id proto.ACGID) (entered uint64, alone bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.acgs[id]
	if a == nil {
		a = &acgTrack{}
		t.acgs[id] = a
	}
	a.inflight++
	a.entered++
	return a.entered, a.inflight == 1
}

func (t *tracer) exitACG(id proto.ACGID, entered uint64, alone bool, delta int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.acgs[id]
	a.inflight--
	if alone && a.entered == entered && delta >= 0 && t.active.Load() {
		t.walDelta = append(t.walDelta, float64(delta))
	}
}

// nodeServer serves node's data-plane methods behind timing wrappers.
func (t *tracer) nodeServer(n *indexnode.Node, shared *sharedstore.Store) *rpc.Server {
	srv := rpc.NewServer()
	rpc.HandleTyped(srv, proto.MethodUpdate, func(ctx context.Context, req proto.UpdateReq) (proto.UpdateResp, error) {
		parent := t.parentOf(req.Client)
		var entered uint64
		var alone bool
		var before int
		if shared != nil {
			entered, alone = t.enterACG(req.ACG)
			before = shared.WALRecords(req.ACG)
		}
		t0 := t.now()
		resp, err := n.Update(ctx, req)
		t1 := t.now()
		if shared != nil {
			t.exitACG(req.ACG, entered, alone, shared.WALRecords(req.ACG)-before)
		}
		t.add(span{name: spanUpdate, id: -1, parent: parent, start: t0, end: t1})
		if err == nil && t.sampleCodec() {
			m, u := codecNs(&req)
			t.sample("update_req_marshal", m)
			t.sample("update_req_unmarshal", u)
		}
		return resp, err
	})
	rpc.HandleTyped(srv, proto.MethodSearch, func(ctx context.Context, req proto.SearchReq) (proto.SearchResp, error) {
		parent := t.parentOf(req.Client)
		t0 := t.now()
		resp, err := n.Search(ctx, req)
		t1 := t.now()
		t.add(span{name: spanSrch, id: -1, parent: parent, start: t0, end: t1})
		if err == nil && t.sampleCodec() {
			m, u := codecNs(&resp)
			t.sample("search_resp_marshal", m)
			t.sample("search_resp_unmarshal", u)
		}
		return resp, err
	})
	return srv
}

// masterServer serves the master methods clients call, timing lookups.
func (t *tracer) masterServer(m *master.Master) *rpc.Server {
	srv := rpc.NewServer()
	timed := func(fn func()) {
		t0 := t.now()
		fn()
		d := t.now() - t0
		t.mu.Lock()
		t.lookups = append(t.lookups, us(d))
		t.mu.Unlock()
		t.add(span{name: spanLookup, id: -1, parent: -1, start: t0, end: t0 + d})
	}
	rpc.HandleTyped(srv, proto.MethodLookupFiles, func(ctx context.Context, req proto.LookupFilesReq) (resp proto.LookupFilesResp, err error) {
		timed(func() { resp, err = m.LookupFiles(ctx, req) })
		return resp, err
	})
	rpc.HandleTyped(srv, proto.MethodLookupIndex, func(ctx context.Context, req proto.LookupIndexReq) (resp proto.LookupIndexResp, err error) {
		timed(func() { resp, err = m.LookupIndex(ctx, req) })
		return resp, err
	})
	rpc.HandleTyped(srv, proto.MethodCreateIndex, m.CreateIndex)
	return srv
}

// serve exposes srv on a loopback listener and returns its address.
func (t *tracer) serve(srv *rpc.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("trace listen: %w", err)
	}
	t.servers = append(t.servers, srv)
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

func (t *tracer) close() {
	for _, s := range t.servers {
		_ = s.Close()
	}
}

// countingConn counts the bytes a client reads and writes on the wire.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// tracedSenders builds one traced client per tenant. Its master
// connection and index node dials go to the tracer's servers, and every
// connection counts its bytes into the sender's counter.
func (t *tracer) tracedSenders(ctx context.Context, c *cluster.Cluster, tenants []string) ([]*sender, error) {
	masterAddr, err := t.serve(t.masterServer(c.Master()))
	if err != nil {
		return nil, err
	}
	stats, err := c.Master().ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		return nil, err
	}
	redirect := make(map[string]string) // cluster node address → traced server
	for _, ns := range stats.Nodes {
		for _, n := range c.Nodes() {
			if n.ID() != ns.Node {
				continue
			}
			addr, err := t.serve(t.nodeServer(n, c.Shared()))
			if err != nil {
				return nil, err
			}
			redirect[ns.Addr] = addr
		}
	}
	var out []*sender
	for _, tn := range tenants {
		s := &sender{tenant: tn, bytes: new(atomic.Int64), tr: t}
		wrap := rpc.WithConnWrapper(func(conn net.Conn) net.Conn { return countingConn{Conn: conn, n: s.bytes} })
		mc, err := rpc.DialContext(ctx, masterAddr, wrap)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, mc)
		s.cl, err = client.New(client.Config{
			ID:     tn,
			Master: mc,
			Dial: func(ctx context.Context, addr string) (*rpc.Client, error) {
				to, ok := redirect[addr]
				if !ok {
					return nil, fmt.Errorf("trace: no traced server for %s", addr)
				}
				return rpc.DialContext(ctx, to, wrap)
			},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// writeSpans writes every span as one tab-separated line:
// name, id, parent, start ns, end ns.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
