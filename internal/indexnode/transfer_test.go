package indexnode

import (
	"context"
	"errors"
	"slices"
	"sort"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/master"
	"propeller/internal/pagestore"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/sharedstore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// transferRig wires a master and two index nodes over pipes, all sharing
// one shared store and one virtual clock — the minimal cluster the
// migration and recovery protocols need.
type transferRig struct {
	m      *master.Master
	a, b   *Node
	shared *sharedstore.Store
	clk    *vclock.Clock
	// servers by pipe address, so tests can read rpc-server stats (e.g.
	// StreamBufferedPeak on the receiving side of a chunked transfer).
	servers map[string]*rpc.Server
}

func newTransferRig(t *testing.T) *transferRig {
	t.Helper()
	clk := vclock.New()
	shared := sharedstore.New()
	m := master.New(master.Config{Clock: clk})
	masterSrv := rpc.NewServer()
	m.RegisterRPC(masterSrv)

	servers := map[string]*rpc.Server{"pipe:master": masterSrv}
	dial := func(_ context.Context, addr string) (*rpc.Client, error) {
		srv, ok := servers[addr]
		if !ok {
			return nil, errors.New("unknown addr " + addr)
		}
		cc, sc := rpc.Pipe()
		srv.ServeConn(sc)
		return rpc.NewClient(cc), nil
	}

	mkNode := func(id proto.NodeID) *Node {
		disk := simdisk.New(simdisk.Barracuda7200(), clk)
		store, err := pagestore.New(disk, 4096)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := dial(context.Background(), "pipe:master")
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			ID: id, Store: store, Disk: disk, Clock: clk,
			CacheLimit: 1 << 20, Master: mc, Dial: dial, Shared: shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		n.RegisterRPC(srv)
		servers["pipe:"+string(id)] = srv
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: id, Addr: "pipe:" + string(id), CapacityFiles: 1 << 30,
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	return &transferRig{m: m, a: mkNode("in-a"), b: mkNode("in-b"), shared: shared, clk: clk, servers: servers}
}

func seedTransferGroup(t *testing.T, n *Node, acg proto.ACGID, files int) {
	t.Helper()
	n.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	for i := 0; i < files; i++ {
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: acg, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTransferACGMovesGroupAndTombstonesSource(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 20)
	// Half committed (via a strict search), half still pending after more
	// updates — the transfer must carry both.
	if _, err := r.a.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Query: "size>=0"}); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		if _, err := r.a.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A heartbeat lets the Master adopt the node-created group, so the
	// migrate report can rebind it.
	if err := r.a.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}

	if err := r.a.TransferACG(ctx, proto.MigrateOrder{ACG: 1, Dest: "in-b", Addr: "pipe:in-b"}); err != nil {
		t.Fatal(err)
	}

	// The destination serves every acknowledged update.
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Query: "size>=0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 30 {
		t.Fatalf("post-transfer search on dest = %d files, want 30", len(resp.Files))
	}

	// The source rejects stale traffic with the typed error.
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 99, Value: attr.Int(99)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("stale update err = %v, want ErrStalePlacement", err)
	}
	if _, err := r.a.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Query: "size>=0"}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("stale search err = %v, want ErrStalePlacement", err)
	}
	st, err := r.a.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsMigratedOut != 1 || st.StalePlacementRejects != 2 {
		t.Fatalf("source stats = migrated %d, rejects %d; want 1, 2", st.GroupsMigratedOut, st.StalePlacementRejects)
	}
	if st.PlacementEpoch == 0 {
		t.Fatal("source should have adopted the post-migration epoch")
	}

	// The Master rebound the mapping.
	lr, err := r.m.LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err == nil && len(lr.Mappings) > 0 {
		// File 0 was never mapped by the master in this rig (updates went
		// straight to the node); the lookup is allowed to fail. When it
		// resolves, it must not point at the source.
		if lr.Mappings[0].Node == "in-a" {
			t.Fatal("master still maps the group to the source")
		}
	}

	// A duplicate order is idempotent.
	if err := r.a.TransferACG(ctx, proto.MigrateOrder{ACG: 1, Dest: "in-b", Addr: "pipe:in-b"}); err != nil {
		t.Fatalf("duplicate transfer order = %v, want nil", err)
	}
}

func TestRecoverFromSharedRestoresCheckpointAndWAL(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 25)
	// Checkpoint part of the history (a causality flush does it), then
	// acknowledge more updates that stay WAL-only.
	if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: 1, Edges: []proto.ACGEdge{{Src: 1, Dst: 2, Weight: 3}}}); err != nil {
		t.Fatal(err)
	}
	for i := 25; i < 40; i++ {
		if _, err := r.a.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Node A "dies"; B adopts the group from shared storage alone.
	r.b.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	if err := r.b.RecoverFromShared(ctx, 1); err != nil {
		t.Fatal(err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Query: "size>=0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 40 {
		t.Fatalf("recovered search = %d files, want 40 (zero lost acknowledged updates)", len(resp.Files))
	}
	st, err := r.b.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsRecovered != 1 {
		t.Fatalf("GroupsRecovered = %d, want 1", st.GroupsRecovered)
	}
}

func TestRecoverDoesNotClobberFresherLocalState(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	// Shared storage holds an old value for file 7 (written through A).
	r.a.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 7, Value: attr.Int(100)}},
	}); err != nil {
		t.Fatal(err)
	}
	// A client re-routed to B ahead of the recover order writes a newer
	// value there.
	r.b.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	if _, err := r.b.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 7, Value: attr.Int(200)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.b.RecoverFromShared(ctx, 1); err != nil {
		t.Fatal(err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Query: "size>150"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 1 || resp.Files[0] != 7 {
		t.Fatalf("search size>150 = %v, want [7] (recovery must not resurrect the stale value)", resp.Files)
	}
}

func TestReleaseACGTombstoneAndReadoption(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 5)
	r.a.ReleaseACG(1, 9)
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 50, Value: attr.Int(50)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("released update err = %v, want ErrStalePlacement", err)
	}
	// Releasing an unknown group still tombstones it.
	r.a.ReleaseACG(42, 9)
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 42, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(1)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("unknown released update err = %v, want ErrStalePlacement", err)
	}
	// An explicit recovery order re-adopts past the tombstone — and the
	// shared store still holds the released group's acknowledged updates.
	if err := r.a.RecoverFromShared(ctx, 1); err != nil {
		t.Fatal(err)
	}
	resp, err := r.a.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Query: "size>=0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 5 {
		t.Fatalf("re-adopted search = %d files, want 5", len(resp.Files))
	}
}

func TestSplitFencesMovedFiles(t *testing.T) {
	// After a split migrates half a group away, the source group stays
	// alive — so a client's warm pre-split mapping must bounce with
	// ErrStalePlacement, not fork ownership by silently re-adding the
	// moved file's postings here.
	r := newTransferRig(t)
	ctx := context.Background()
	r.a.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	// Two dense causal clusters joined by one light edge: the min-cut
	// bisection moves one cluster out.
	for c := 0; c < 2; c++ {
		base := index.FileID(c * 10)
		for i := index.FileID(0); i < 10; i++ {
			if _, err := r.a.Update(ctx, proto.UpdateReq{
				ACG: 1, IndexName: "size",
				Entries: []proto.IndexEntry{{File: base + i, Value: attr.Int(int64(base+i) + 1)}},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: 1, Edges: []proto.ACGEdge{
				{Src: base + i, Dst: base + (i+1)%10, Weight: 100},
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: 1, Edges: []proto.ACGEdge{{Src: 0, Dst: 10, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := r.a.Heartbeat(ctx); err != nil { // master adopts ACG 1
		t.Fatal(err)
	}
	split, err := r.a.SplitACG(ctx, proto.SplitACGReq{ACG: 1})
	if err != nil {
		t.Fatal(err)
	}
	if split.Moved == 0 {
		t.Fatal("split moved nothing")
	}
	// Identify a moved file: one no longer served by the old group.
	resp, err := r.a.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Query: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	stayed := make(map[index.FileID]bool, len(resp.Files))
	for _, f := range resp.Files {
		stayed[f] = true
	}
	var moved index.FileID
	found := false
	for f := index.FileID(0); f < 20; f++ {
		if !stayed[f] {
			moved, found = f, true
			break
		}
	}
	if !found {
		t.Fatal("no moved file found")
	}
	// A stale-routed update for the moved file bounces with the typed
	// error instead of being silently accepted.
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: moved, Value: attr.Int(999)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("stale update for split-away file = %v, want ErrStalePlacement", err)
	}
	// Files that stayed keep updating normally.
	var keep index.FileID
	for f := range stayed {
		keep = f
		break
	}
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: keep, Value: attr.Int(1234)}},
	}); err != nil {
		t.Fatalf("update for retained file = %v, want nil", err)
	}
}

// TestSplitToSelfInstallsLocally drives the split whose destination is
// the splitting node itself (the Master's least-loaded pick): the moved
// half must install here as the new group — files, causality edges and
// B-tree, hash and KD postings, with the stream position carried over —
// while the source group fences the moved files.
func TestSplitToSelfInstallsLocally(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	// The nodes create their groups locally and the Master adopts them by
	// heartbeat; ids above the Master's next fresh id keep the split's new
	// group distinct from both.
	const src proto.ACGID = 5
	r.a.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	r.a.DeclareIndex(proto.IndexSpec{Name: "tag", Type: proto.IndexHash, Field: "tag"})
	r.a.DeclareIndex(proto.IndexSpec{Name: "loc", Type: proto.IndexKD, Fields: []string{"x", "y"}})
	// Two dense causal clusters joined by one light edge, as in
	// TestSplitFencesMovedFiles.
	for c := 0; c < 2; c++ {
		base := index.FileID(c * 10)
		for i := index.FileID(0); i < 10; i++ {
			f := base + i
			for _, req := range []proto.UpdateReq{
				{ACG: src, IndexName: "size", Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f) + 1)}}},
				{ACG: src, IndexName: "tag", Entries: []proto.IndexEntry{{File: f, Value: attr.Str("all")}}},
				{ACG: src, IndexName: "loc", Entries: []proto.IndexEntry{{File: f, KDCoords: []float64{float64(f), -float64(f)}}}},
			} {
				if _, err := r.a.Update(ctx, req); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: src, Edges: []proto.ACGEdge{
				{Src: f, Dst: base + (i+1)%10, Weight: 100},
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: src, Edges: []proto.ACGEdge{{Src: 0, Dst: 10, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	// Node b reports more files than a, so the Master places the new group
	// on a itself.
	seedTransferGroup(t, r.b, src+1, 40)
	for _, n := range []*Node{r.a, r.b} {
		if err := n.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	g := r.a.lockGroup(src)
	seq := g.replSeq
	edges := make(map[[2]index.FileID]int64)
	for from, m := range g.graph.adj {
		for to, w := range m {
			edges[[2]index.FileID{from, to}] = w
		}
	}
	g.mu.Unlock()

	split, err := r.a.SplitACG(ctx, proto.SplitACGReq{ACG: src})
	if err != nil {
		t.Fatal(err)
	}
	if split.Moved == 0 || split.Moved == 20 {
		t.Fatalf("split moved %d of 20 files, want a proper half", split.Moved)
	}
	if g := r.b.lockGroup(split.NewACG); g != nil {
		g.mu.Unlock()
		t.Fatalf("new group %d landed on b, want the splitting node", split.NewACG)
	}
	ng := r.a.lockGroup(split.NewACG)
	if ng == nil {
		t.Fatalf("new group %d missing on the splitting node", split.NewACG)
	}
	moved := make([]index.FileID, 0, len(ng.files))
	for f := range ng.files {
		moved = append(moved, f)
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i] < moved[j] })
	gotSeq := ng.replSeq
	movedEdges := 0
	for e, w := range edges {
		if !ng.files[e[0]] || !ng.files[e[1]] {
			continue
		}
		movedEdges++
		if got := ng.graph.adj[e[0]][e[1]]; got != w {
			t.Errorf("edge %d->%d on new group = %d, want %d", e[0], e[1], got, w)
		}
	}
	ng.mu.Unlock()
	if len(moved) != split.Moved {
		t.Fatalf("new group holds %d files, split reported %d", len(moved), split.Moved)
	}
	if gotSeq != seq {
		t.Errorf("new group replSeq = %d, want the source's %d", gotSeq, seq)
	}
	if movedEdges == 0 {
		t.Error("no causality edge moved with the half")
	}

	for _, q := range []proto.SearchReq{
		{IndexName: "size", Query: "size>0"},
		{IndexName: "tag", Query: "tag:all"},
		{IndexName: "loc", Query: "x>=0 & x<=100 & y<=0"},
	} {
		q.ACGs = []proto.ACGID{split.NewACG}
		resp, err := r.a.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resp.Files, moved) {
			t.Errorf("%s search on new group = %v, want %v", q.IndexName, resp.Files, moved)
		}
	}

	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: src, IndexName: "size",
		Entries: []proto.IndexEntry{{File: moved[0], Value: attr.Int(999)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("stale update for split-away file = %v, want ErrStalePlacement", err)
	}
}
