package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"propeller/internal/index"
)

// opKind is one kind of operation a workload issues.
type opKind uint8

const (
	// opWrite is a single-entry client.Index update of the "size" index.
	opWrite opKind = iota
	// opPoint is a strict point search for a file's latest acked size: the
	// read-your-writes probe.
	opPoint
	// opEq is a strict B-tree equality search on an immutable preloaded size.
	opEq
	// opNarrow is a strict B-tree range search matching narrowSpan files.
	opNarrow
	// opBroad1 is the first page (Limit pageLimit) of a broad range search.
	opBroad1
	// opBroad2 is the cursor page after opBroad1's page of a broad range.
	opBroad2
	// opHash is a strict point lookup on the "uid" hash index.
	opHash
	numKinds
)

var kindNames = [numKinds]string{"write", "point", "eq", "narrow", "broad1", "broad2", "hash"}

func (k opKind) String() string { return kindNames[k] }

// isSearch reports whether the kind is a client.Search call.
func (k opKind) isSearch() bool { return k != opWrite }

// Value layout of the "size" attribute. Every value is unique: preloaded
// sizes are sizeBase + rank*sizeStride, the immutable-workload scratch
// files start at scratchBase, and every write carries a fresh value above
// writeBase (see writeValue).
const (
	sizeBase    = 1 << 20
	sizeStride  = 16
	scratchBase = 1 << 32
	writeBase   = 1 << 40

	narrowSpan = 10     // files matched by an opNarrow range
	broadShare = 5      // an opBroad range covers files/broadShare ranks
	pageLimit  = 32     // Limit of both broad pages
	uidShare   = 4      // files sharing one uid
	zipfS      = 1.1    // Zipf exponent of write and point-search keys
	indexSize  = "size" // B-tree index over "size"
	indexUID   = "uid"  // hash index over "uid"
	// opTimeout bounds every op; an op that runs out is a miss.
	opTimeout = 2 * time.Second
)

// workload is one named input configuration: the cluster it boots, the
// data it preloads and the operation mix it offers.
type workload struct {
	name string
	// nodes is the number of Index Nodes.
	nodes int
	// replication is k; k > 1 turns on the failure control plane
	// (shared-store mirroring) and streams every ack to a follower.
	replication int
	// files is the number of preloaded files; groupSize files share an ACG.
	files     int
	groupSize int
	// poolPages bounds each node's buffer pool (0 = the cluster default,
	// which holds the whole index).
	poolPages int
	// hashIndex preloads a second, hash, index over "uid".
	hashIndex bool
	// scratchEvery > 0 confines writes to every scratchEvery-th file, whose
	// sizes live outside the range the read queries cover, so the read
	// queries have exact expected answers while writes run.
	scratchEvery int
	// rate is the open loop's offered load in ops/s, about a tenth of the
	// closed-loop capacity measured for this mix on a 2-CPU host. At 40%,
	// ops queue behind multi-millisecond strict searches so often that a
	// slow spell on the host doubles the open-loop percentiles.
	rate float64
	// mix is each kind's share of the operations.
	mix [numKinds]float64
}

var workloads = []workload{
	{
		name: "ingest", nodes: 2, replication: 2, files: 100_000, groupSize: 1000,
		rate: 200,
		mix:  [numKinds]float64{opWrite: 0.91, opPoint: 0.09},
	},
	{
		name: "search", nodes: 2, replication: 1, files: 100_000, groupSize: 500,
		hashIndex: true, scratchEvery: 20,
		rate: 85,
		mix: [numKinds]float64{
			opWrite: 0.50, opEq: 0.14, opNarrow: 0.10, opBroad1: 0.06, opBroad2: 0.05, opHash: 0.15,
		},
	},
	{
		name: "mixed", nodes: 2, replication: 1, files: 100_000, groupSize: 1000,
		poolPages: 64,
		rate:      40,
		mix:       [numKinds]float64{opWrite: 0.5, opPoint: 0.5},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// dataset is the seeded preload: every file's size and uid and the
// orderings the schedule generator and the answer checker share.
// Files are numbered 0..files-1 here and travel as FileID i+1.
type dataset struct {
	w        workload
	sizeRank []int32 // file → rank of its preloaded size
	byRank   []int32 // rank → file
	uid      []int32 // file → uid
	byUID    []int32 // uid*uidShare+j → file
	hot      []int32 // Zipf rank → file, dealt round-robin over groups
	scratch  []int32 // files writes may touch (nil = every file)
}

func fileID(f int32) index.FileID { return index.FileID(f) + 1 }

func (d *dataset) isScratch(f int32) bool {
	return d.w.scratchEvery > 0 && int(f)%d.w.scratchEvery == d.w.scratchEvery-1
}

// preloadSize is file f's size before any write.
func (d *dataset) preloadSize(f int32) int64 {
	if d.isScratch(f) {
		return scratchBase + int64(f)
	}
	return sizeBase + int64(d.sizeRank[f])*sizeStride
}

// group is the ACG hint of file f: consecutive runs of groupSize files.
func (d *dataset) group(f int32) uint64 { return uint64(int(f)/d.w.groupSize) + 1 }

// mix64 is the splitmix64 finalizer, used to derive independent streams
// from one seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ mix64(stream)))))
}

func perm(r *rand.Rand, n int) (fwd, inv []int32) {
	fwd = make([]int32, n)
	inv = make([]int32, n)
	for i, p := range r.Perm(n) {
		fwd[i] = int32(p)
		inv[p] = int32(i)
	}
	return fwd, inv
}

// newDataset generates the preload for w from seed.
func newDataset(w workload, seed int64) *dataset {
	d := &dataset{w: w}
	d.sizeRank, d.byRank = perm(newRand(seed, 1), w.files)
	if w.hashIndex {
		d.uid, d.byUID = perm(newRand(seed, 2), w.files)
		for i := range d.uid {
			d.uid[i] /= uidShare
		}
	}
	// Deal Zipf ranks round-robin over the groups, so the hottest files
	// sit in distinct groups and every node sees the same skew whatever
	// the seed; the seed picks each rank's file within its group.
	groups := (w.files + w.groupSize - 1) / w.groupSize
	within, _ := perm(newRand(seed, 3), w.groupSize)
	d.hot = make([]int32, 0, w.files)
	for r := 0; len(d.hot) < w.files; r++ {
		if f := (r%groups)*w.groupSize + int(within[(r/groups)%w.groupSize]); f < w.files {
			d.hot = append(d.hot, int32(f))
		}
	}
	if w.scratchEvery > 0 {
		for f := int32(0); int(f) < w.files; f++ {
			if d.isScratch(f) {
				d.scratch = append(d.scratch, f)
			}
		}
	}
	return d
}

// op is one scheduled operation. Search texts are fixed at generation
// time except for opPoint, whose value is the file's latest acked size
// when the op is sent.
type op struct {
	// at is the intended arrival, as an offset from the phase start (open
	// loop only).
	at   time.Duration
	kind opKind
	// file is the written or probed file (opWrite, opPoint, opEq).
	file int32
	// value is the size an opWrite sets.
	value int64
	// text is the query text of every search kind but opPoint.
	text string
	// lo and after describe range and page queries for the answer check:
	// lo is the first size rank (or the uid) and after the page-2 cursor.
	lo    int32
	after index.FileID
}

// writeValue is the size a write carries: unique across phases (phase),
// senders (stream) and ops (n).
func writeValue(phase, stream int, n int) int64 {
	return writeBase | int64(phase)<<36 | int64(stream)<<32 | int64(n)
}

// generator draws ops of one workload from one seeded stream.
type generator struct {
	d     *dataset
	r     *rand.Rand
	zipf  *rand.Zipf
	cum   [numKinds]float64
	phase int
	strm  int
	n     int
}

func newGenerator(d *dataset, seed int64, phase, stream int) *generator {
	r := newRand(seed, uint64(100+phase*16+stream))
	g := &generator{d: d, r: r, phase: phase, strm: stream}
	g.zipf = rand.NewZipf(r, zipfS, 1, uint64(d.w.files-1))
	sum := 0.0
	for k := range g.cum {
		sum += d.w.mix[k]
		g.cum[k] = sum
	}
	for k := range g.cum {
		g.cum[k] /= sum
	}
	return g
}

func (g *generator) hotFile() int32 { return g.d.hot[g.zipf.Uint64()] }

// uniformFile draws a file the read queries cover (never a scratch file).
func (g *generator) uniformFile() int32 {
	for {
		f := int32(g.r.Intn(g.d.w.files))
		if !g.d.isScratch(f) {
			return f
		}
	}
}

func (g *generator) next() op {
	u := g.r.Float64()
	k := opKind(0)
	for k < numKinds-1 && u >= g.cum[k] {
		k++
	}
	o := op{kind: k}
	d := g.d
	switch k {
	case opWrite:
		if d.scratch != nil {
			o.file = d.scratch[g.r.Intn(len(d.scratch))]
		} else {
			o.file = g.hotFile()
		}
		o.value = writeValue(g.phase, g.strm, g.n)
	case opPoint:
		o.file = g.hotFile()
	case opEq:
		o.file = g.uniformFile()
		o.text = fmt.Sprintf("size=%d", d.preloadSize(o.file))
	case opNarrow:
		o.lo = int32(g.r.Intn(d.w.files - narrowSpan))
		o.text = rangeText(o.lo, narrowSpan)
	case opBroad1, opBroad2:
		span := int32(d.w.files / broadShare)
		o.lo = int32(g.r.Intn(d.w.files - int(span)))
		o.text = rangeText(o.lo, span)
		if k == opBroad2 {
			page, _ := d.rangePage(o.lo, span, 0, false)
			o.after = page[len(page)-1]
		}
	case opHash:
		o.lo = int32(g.r.Intn(d.w.files / uidShare))
		o.text = fmt.Sprintf("uid=%d", o.lo)
	}
	g.n++
	return o
}

func rangeText(lo, span int32) string {
	return fmt.Sprintf("size>=%d & size<=%d",
		sizeBase+int64(lo)*sizeStride, sizeBase+int64(lo+span-1)*sizeStride)
}

// openSchedule draws a Poisson arrival schedule at w.rate for dur.
func openSchedule(d *dataset, seed int64, phase int, dur time.Duration) []op {
	g := newGenerator(d, seed, phase, 0)
	ar := newRand(seed, uint64(200+phase))
	var ops []op
	var at time.Duration
	for {
		at += time.Duration(ar.ExpFloat64() / d.w.rate * float64(time.Second))
		if at >= dur {
			return ops
		}
		o := g.next()
		o.at = at
		ops = append(ops, o)
	}
}

// rangePage returns the page of non-scratch files, ascending by FileID,
// whose size rank lies in [lo, lo+span), after the cursor when afterSet,
// and whether more matches follow it.
func (d *dataset) rangePage(lo, span int32, after index.FileID, afterSet bool) ([]index.FileID, bool) {
	var page []index.FileID
	start := int32(0)
	if afterSet {
		start = int32(after) // FileID after-1 is file after-1; resume at file `after`
	}
	for f := start; int(f) < d.w.files; f++ {
		if r := d.sizeRank[f]; r < lo || r >= lo+span || d.isScratch(f) {
			continue
		}
		if len(page) == pageLimit {
			return page, true
		}
		page = append(page, fileID(f))
	}
	return page, false
}

// expected returns the exact answer of a read query over immutable
// preloaded data, and for paged kinds whether more matches follow.
func (d *dataset) expected(o *op) ([]index.FileID, bool) {
	switch o.kind {
	case opEq:
		return []index.FileID{fileID(o.file)}, false
	case opNarrow:
		var out []index.FileID
		for r := o.lo; r < o.lo+narrowSpan; r++ {
			if f := d.byRank[r]; !d.isScratch(f) {
				out = append(out, fileID(f))
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, false
	case opBroad1:
		return d.rangePage(o.lo, int32(d.w.files/broadShare), 0, false)
	case opBroad2:
		return d.rangePage(o.lo, int32(d.w.files/broadShare), o.after, true)
	case opHash:
		out := make([]index.FileID, 0, uidShare)
		for j := int32(0); j < uidShare; j++ {
			out = append(out, fileID(d.byUID[o.lo*uidShare+j]))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, false
	}
	return nil, false
}
