package main

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"propeller/internal/attr"
	"propeller/internal/cluster"
	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/rpc"
)

// fileState is the harness's model of one file's "size": the values the
// file may hold now, given the writes acked, failed and in flight.
type fileState struct {
	mu sync.Mutex
	// sent counts writes sent to the file; inflight those not yet ended.
	sent, inflight uint32
	// overlapping counts the writes begun since the file last had none in
	// flight: a write is clean when it was the only one.
	overlapping uint32
	// possible lists the values the file may hold. It is exactly one
	// value, the settled state, after the preload and after a clean acked
	// write; overlapping writes may apply in either order and a failed
	// write may or may not have applied, so those add candidates.
	possible []int64
	settled  bool
}

// model tracks every file so the gates can tell what a strict search
// must return.
type model struct {
	d     *dataset
	files []fileState

	mu         sync.Mutex
	violations []string
}

func newModel(d *dataset) *model {
	m := &model{d: d, files: make([]fileState, d.w.files)}
	for f := range m.files {
		m.files[f].possible = []int64{d.preloadSize(int32(f))}
		m.files[f].settled = true
	}
	return m
}

func (m *model) violate(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.violations = append(m.violations, fmt.Sprintf(format, args...))
}

// beginWrite registers a write about to be sent.
func (m *model) beginWrite(f int32) {
	st := &m.files[f]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.inflight == 0 {
		st.overlapping = 0
	}
	st.overlapping++
	st.inflight++
	st.sent++
	st.settled = false
}

// endWrite records a write's outcome.
func (m *model) endWrite(f int32, v int64, ok bool) {
	st := &m.files[f]
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight--
	if ok && st.overlapping == 1 {
		st.possible = append(st.possible[:0], v)
		st.settled = true
		return
	}
	st.possible = append(st.possible, v)
}

// probe is a read-your-writes check in flight: the value a strict point
// search asks for and whether the file must be in its answer.
type probe struct {
	file  int32
	value int64
	sent  uint32
	// eligible: the file's state was settled when the search was sent.
	eligible bool
}

func (m *model) beginProbe(f int32) probe {
	st := &m.files[f]
	st.mu.Lock()
	defer st.mu.Unlock()
	return probe{
		file: f, value: st.possible[len(st.possible)-1], sent: st.sent,
		eligible: st.settled && st.inflight == 0,
	}
}

// endProbe applies the read-your-writes gate: a strict point search sent
// after a write's ack must return the file unless another write to it was
// sent before the search completed, and never returns another file
// (values are unique per write).
func (m *model) endProbe(p probe, files []index.FileID) {
	st := &m.files[p.file]
	st.mu.Lock()
	quiet := st.sent == p.sent
	st.mu.Unlock()
	want := fileID(p.file)
	found := false
	for _, f := range files {
		if f != want {
			m.violate("point search size=%d returned file %d, want only file %d", p.value, f, want)
			return
		}
		found = true
	}
	if p.eligible && quiet && !found {
		m.violate("read-your-writes: strict search size=%d missed acked file %d", p.value, want)
	}
}

// checkAnswer compares a read query's result with the exact answer
// computed from the immutable preload.
func (m *model) checkAnswer(o *op, files []index.FileID, more bool) {
	want, wantMore := m.d.expected(o)
	if !equalIDs(files, want) || more != wantMore {
		m.violate("%s %q (after %d): got %d files more=%v, want %d files more=%v",
			o.kind, o.text, o.after, len(files), more, len(want), wantMore)
	}
}

func equalIDs(a, b []index.FileID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// audit is the end-of-run durability gate: every written file must hold
// one of its possible values (its last acked value when that write was
// clean), found by a strict search of the file's own group on its
// primary. It returns the number of files checked and the number lost.
func (m *model) audit(ctx context.Context, c *cluster.Cluster) (checked, lost int, err error) {
	var files []index.FileID
	for f := range m.files {
		if m.files[f].sent > 0 {
			files = append(files, fileID(int32(f)))
		}
	}
	if len(files) == 0 {
		return 0, 0, nil
	}
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: files})
	if err != nil {
		return 0, 0, fmt.Errorf("audit lookup: %w", err)
	}
	conns := map[string]*rpc.Client{}
	for _, mp := range look.Mappings {
		if conns[mp.Addr] == nil {
			cl, err := c.Dial(ctx, mp.Addr)
			if err != nil {
				return 0, 0, fmt.Errorf("audit dial: %w", err)
			}
			conns[mp.Addr] = cl
		}
	}
	found := func(mp proto.FileMapping, v int64) (bool, error) {
		resp, err := rpc.Call[proto.SearchReq, proto.SearchResp](ctx, conns[mp.Addr], proto.MethodSearch,
			proto.SearchReq{
				ACGs: []proto.ACGID{mp.ACG}, IndexName: indexSize,
				Preds:       []query.Predicate{{Field: "size", Op: query.OpEq, Value: attr.Int(v)}},
				Consistency: proto.ConsistencyStrict,
			})
		if err != nil {
			return false, err
		}
		for _, f := range resp.Files {
			if f == mp.File {
				return true, nil
			}
		}
		return false, nil
	}

	const workers = 2
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan proto.FileMapping)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mp := range next {
				st := &m.files[mp.File-1]
				ok := false
				for _, v := range st.possible {
					hit, err := found(mp, v)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("audit search: %w", err)
						}
						mu.Unlock()
						break
					}
					if hit {
						ok = true
						break
					}
				}
				if !ok {
					mu.Lock()
					lost++
					mu.Unlock()
					m.violate("audit: file %d holds none of its acked values %v", mp.File, st.possible)
				}
			}
		}()
	}
	sort.Slice(look.Mappings, func(i, j int) bool { return look.Mappings[i].File < look.Mappings[j].File })
	for _, mp := range look.Mappings {
		next <- mp
	}
	close(next)
	wg.Wait()
	return len(files), lost, firstErr
}
