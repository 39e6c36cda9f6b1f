package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/dedup"
	"github.com/psmr/psmr/internal/obs"
)

// IndexScheduler is the index-based early scheduling engine, combining
// two techniques from the literature on parallel state-machine
// replication schedulers:
//
//   - Early scheduling (Alchieri, Dotti, Pedone): the mapping from
//     command classes to worker sets is compiled once from the C-Dep
//     (cdep.Compiled.Route), so admission performs no conflict
//     reasoning — it just routes.
//   - Index-based scheduling (Wu et al.): a hash-sharded per-key
//     conflict index maps each key with live commands to the worker
//     currently serving it, so a keyed command enqueues in O(1) behind
//     exactly the commands it conflicts with — never a scan over the
//     live set.
//
// Commands flow straight from the delivery thread into per-worker
// ingress queues; there is no scheduler thread to saturate a core (the
// bottleneck the paper measures for sP-SMR in Figures 3, 5 and 7).
// The execution pipeline is batch-first:
//
//   - SubmitBatch admits one decided batch at a time: every touched
//     key shard is locked once per burst and every target worker's
//     ingress deque is pushed once per burst, instead of once per
//     command.
//
//   - Same-key write chains land on one worker's FIFO while any of
//     them is live, so they execute in admission order. Same-key
//     READ-ONLY commands (cdep.Route.ReadOnly) instead join a per-key
//     reader set: each reader is routed independently (least-loaded)
//     and waits only for the completion gate of the last admitted
//     writer, while the next writer waits for the reader set admitted
//     since the previous writer to drain — the same reader concurrency
//     the scan engine's live-set tracking provides, without a
//     scheduler thread.
//
//   - Keys with no live commands are (re)assigned to the least-loaded
//     worker (ties break to the lowest worker id), which is what
//     balances skewed workloads.
//
//   - An idle worker steals a bounded batch of non-keyed work from the
//     longest ingress queue. Keyed chains never migrate (the per-key
//     FIFO is the conflict order) and nothing is taken at or past a
//     pending barrier or multi-key token, so stealing cannot reorder
//     dependent commands.
//
//   - Global (barrier) commands are enqueued on every worker's queue;
//     workers rendezvous at the token, the compiled set's minimum
//     member executes alone, then releases the rest — exactly the
//     paper's "wait for the worker threads to finish their ongoing
//     work" semantics.
//
//   - MULTI-KEY commands (cdep.RouteMultiKey) acquire every touched
//     key like a 2PL lock point over the per-key FIFOs: admission
//     places the command as the new last writer of every key (in
//     sorted-key order) and enqueues ONE token on every distinct owner
//     queue, then runs a deposit-and-continue handoff: the token
//     carries an atomic countdown initialized to the number of
//     distinct owners, and an owner popping the token DEPOSITS
//     (decrements) and keeps draining the unrelated work queued behind
//     it — no owner parks. The LAST depositor becomes the executor: it
//     waits for the touched keys' sealed reader sets and for the
//     completion gates of any predecessor multi-key tokens on shared
//     keys, executes once, and closes the token's pre-allocated
//     completion gate, releasing the successors of every touched key.
//
//     Safety argument. (a) Per-key FIFO: an owner deposits only after
//     popping everything admitted before the token on that queue, and
//     single-key commands execute inline at pop — so when the last
//     owner deposits, every EARLIER same-key command has completed,
//     except predecessor multi-key tokens (for which popped does not
//     imply completed); those are covered by explicit completion-gate
//     waits latched at admission. Every LATER same-key command — the
//     next writer, readers, successor tokens — latches this token's
//     completion gate at admission and cannot start before it closes.
//     The last deposit is therefore exactly the 2PL lock point of an
//     owner rendezvous, without idling the N−1 earlier owners: same
//     command set, same per-key order, one execution.
//     (b) No deadlock: tokens are fully enqueued under the serialized
//     admission path before admission continues, so they appear on all
//     queues in ONE global admission order, and every wait edge (FIFO
//     predecessor, writer gate, sealed reader group, predecessor token
//     gate) points to an earlier-admitted command — the wait graph is
//     acyclic. (c) The outcome is byte-identical to the scan engine's
//     on any input stream (asserted by the root determinism e2e).
//
// The admission and completion hot paths are allocation-free at steady
// state (asserted by TestAdmitKeyedIndexBatchZeroAlloc): inodes,
// multi-key tokens, reader groups and conflict-index entries are
// pooled and recycled at completion, key sets use small inline buffers
// (cdep.Compiled.AppendKeySet), and the ingress deques are pre-sized
// power-of-two rings. Completion gates and reader-group done channels
// are the deliberate exception: a closed channel cannot be re-armed
// and waiters retain the pointer past the owner's recycling, so they
// are allocated fresh — but only on paths that already pay a
// rendezvous (multi-key tokens, reader/writer transitions), never on
// the plain keyed fast path.
//
// The ingress deques are unbounded, like the scan engine's ready list:
// backpressure comes from the closed-loop clients and the ordering
// layer, and bounded hand-off channels would deadlock batched
// admission against reader-set gates (a blocked producer could hold
// back the very writer a queue head is waiting on). Submit and
// SubmitBatch keep the scan engine's contract: one producer, or
// producers that are externally serialized.
type IndexScheduler struct {
	cfg     Config
	queues  []*ingress
	keyIdx  []keyShard
	clients []clientShard

	stealBatch int
	stealSig   chan struct{}
	// stolen counts commands migrated between ingress queues by work
	// stealing since start (monotonic; exported via Stats).
	stolen atomic.Uint64

	admitCPU *bench.RoleMeter

	// Object pools backing zero-alloc admission. ipool holds plain
	// inodes (keyed, free, multi-key readers); mkpool holds multi-key
	// token inodes; gpool holds reader groups.
	ipool  sync.Pool
	mkpool sync.Pool
	gpool  sync.Pool

	// Admission scratch, reused across calls (producers are externally
	// serialized, so no locking). buckets groups one burst's keyed
	// commands by key shard; touched lists the non-empty buckets;
	// perWorker/workersHit bucket the placed burst by target queue;
	// mkScratch receives AppendKeySet output; token is the one-element
	// slice pushed per owner/worker queue.
	single     [1]*command.Request
	token      [1]*inode
	mkScratch  []uint64
	buckets    [][]*inode // len keyShardCount
	touched    []int
	free       []*inode
	perWorker  [][]*inode
	workersHit []int
	pendingLen []int

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// ingressInitCap pre-sizes each worker's ring so steady-state bursts
// never grow it; it doubles on overflow and keeps the peak capacity.
const ingressInitCap = 256

// ingress is one worker's unbounded admission deque. A mutex-guarded
// power-of-two ring replaces a bounded channel so that (a) a whole
// burst enqueues under one lock acquisition, (b) an idle worker can
// steal from the middle of another worker's backlog, and (c) the
// steady state allocates nothing — head/tail chase each other around
// a buffer sized once at the workload's peak.
type ingress struct {
	mu   sync.Mutex
	buf  []*inode // power-of-two ring
	head int
	n    int
	// load counts queued + executing commands; admission's least-loaded
	// placement reads it without the lock.
	load atomic.Int64
	// freeLoad counts the queued non-keyed, non-barrier commands — the
	// stealable ones. Thieves pick their victim by it, so an all-keyed
	// backlog costs them one atomic load, never a scan under the
	// victim's lock.
	freeLoad atomic.Int64
	// raided counts commands recently stolen FROM this queue — the
	// steal-aware placement feedback. A queue that keeps getting raided
	// is draining slower than its peers, so leastLoaded treats the
	// counter as extra load and stops preferring the queue as the owner
	// of idle keys; imbalance is then fixed at admission instead of
	// being re-stolen every burst. The counter halves each time the
	// owner finds its queue empty AND each time it drains a multi-key
	// token (progress through the backlog that never empties the queue
	// in token-heavy workloads), so the penalty fades once the backlog
	// clears.
	raided atomic.Int64
	// wake is a 1-buffered doorbell: pushed-to while the owner may be
	// parked.
	wake chan struct{}
}

func newIngress() *ingress {
	return &ingress{
		buf:  make([]*inode, ingressInitCap),
		wake: make(chan struct{}, 1),
	}
}

// grow doubles the ring until it fits need, unwrapping to index 0.
// The caller holds mu.
func (q *ingress) grow(need int) {
	capNew := len(q.buf) * 2
	for capNew < need {
		capNew *= 2
	}
	nb := make([]*inode, capNew)
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = nb
	q.head = 0
}

func (q *ingress) pushBatch(ns []*inode) {
	free := 0
	for _, n := range ns {
		if !n.keyed && n.bar == nil {
			free++
		}
	}
	if free > 0 {
		q.freeLoad.Add(int64(free))
	}
	q.load.Add(int64(len(ns)))
	q.mu.Lock()
	if q.n+len(ns) > len(q.buf) {
		q.grow(q.n + len(ns))
	}
	mask := len(q.buf) - 1
	for i, n := range ns {
		q.buf[(q.head+q.n+i)&mask] = n
	}
	q.n += len(ns)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop removes the queue head, or returns nil when the queue is empty.
func (q *ingress) pop() *inode {
	q.mu.Lock()
	if q.n == 0 {
		q.mu.Unlock()
		return nil
	}
	n := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.mu.Unlock()
	return n
}

// inode is one admitted command (or one worker's view of a barrier or
// multi-key token). Plain inodes are pooled and recycled at
// completion; barrier inodes are not (parked workers may still select
// on their channels); multi-key token inodes recycle through mkpool.
type inode struct {
	req    *command.Request
	client uint64 // req's id, captured at admission (see bind)
	seq    uint64
	marker func()        // quiesce marker closure (barrier tokens only)
	bar    *indexBarrier // non-nil for barrier tokens
	mk     *mkToken      // non-nil for multi-key tokens
	keyed  bool
	reader bool
	key    uint64
	mkeys  []uint64 // multi-key readers: canonical key set (len 0 otherwise)

	set    command.Gamma // compiled worker set (admission scratch)
	worker int           // target queue (admission scratch)

	waitW  gate           // readers, and writers behind a pending token: completion gate to wait
	waitWs []gate         // multi-key readers: one writer gate per live key
	waitR  *readerGroup   // writers: reader set admitted since the previous writer
	gate   gate           // writers: closed on completion
	grp    *readerGroup   // readers: group to leave on completion
	grps   []*readerGroup // multi-key readers: group per key, parallel to mkeys
}

// mkToken coordinates one multi-key command across the workers owning
// its keys. The SAME inode is enqueued on every owner queue; the
// completion gate is pre-allocated (readers of any touched key may
// latch onto it from under different key shards, so lazy allocation
// would race). keys and owners alias the inline buffers until a
// command touches more than four keys, mirroring the pooled proxy
// frames of the ordering layer.
type mkToken struct {
	keys      []uint64 // canonical (sorted, deduped) key set
	keysBuf   [4]uint64
	owners    []int // distinct owner workers, ascending
	ownersBuf [4]int

	// pending is the handoff countdown: initialized to len(owners)
	// before the token is enqueued; each owner deposits by decrementing
	// at pop, and the owner that reaches zero executes.
	pending atomic.Int32

	waitRs []*readerGroup // sealed reader sets of the touched keys
	waitWs []gate         // completion gates of predecessor multi-key tokens
}

// gate is a writer's completion latch; successors admitted while the
// writer is live wait on it before executing. It is allocated lazily —
// only when a successor actually needs it — so write-only chains pay
// nothing for it. Gates are never pooled: waiters hold the channel
// past the owner's recycling, and a closed channel cannot be re-armed.
type gate chan struct{}

// readerGroup counts the live readers admitted between two writers of
// one key. The next writer seals the group at admission (allocating
// done); the last member to complete after sealing closes done. Groups
// are pooled: the unique waiter recycles a sealed group after its wait,
// and a dying key entry recycles its unsealed one.
type readerGroup struct {
	n    int
	done chan struct{} // non-nil once sealed by a writer
}

// indexBarrier coordinates one global command across the workers.
type indexBarrier struct {
	executor int           // worker that runs the command (min of the route's set)
	arrive   chan struct{} // workers signal "drained up to the token"
	release  chan struct{} // closed by the executor after running
}

// keyShard is one shard of the per-key conflict index. Keyed by
// cdep.KeyFunc output, hash-sharded so the admission thread and the
// workers' completions rarely contend; batched admission locks each
// touched shard once per burst.
type keyShard struct {
	mu   sync.Mutex
	live map[uint64]*keyEntry
	// epool is the shard's keyEntry free list, pushed/popped under mu:
	// entries churn at the rate keys go idle, so recycling them is what
	// keeps the map's delete/insert cycle allocation-free.
	epool []*keyEntry
}

func (ks *keyShard) getEntry() *keyEntry {
	if n := len(ks.epool); n > 0 {
		e := ks.epool[n-1]
		ks.epool[n-1] = nil
		ks.epool = ks.epool[:n-1]
		return e
	}
	return &keyEntry{}
}

func (ks *keyShard) putEntry(e *keyEntry) {
	e.worker, e.writers, e.total = 0, 0, 0
	e.lastWriter, e.readers = nil, nil
	ks.epool = append(ks.epool, e)
}

// keyEntry tracks one key with live (queued or executing) commands:
// the worker owning the write chain, live counts, the last admitted
// writer, and the reader set admitted since.
type keyEntry struct {
	worker     int // FIFO owning the write chain (valid while writers > 0)
	writers    int // live writers
	total      int // live writers + readers (entry is deleted at zero)
	lastWriter *inode
	readers    *readerGroup
}

// clientShard is one shard of the at-most-once state: the response
// cache plus the in-flight duplicate filter (shared across workers, so
// a retransmission routed anywhere is answered or suppressed).
type clientShard struct {
	mu       sync.Mutex
	table    *dedup.Table
	inflight map[requestID]struct{}
}

const (
	keyShardCount    = 128
	clientShardCount = 64
	// defaultStealBatch caps the commands an idle worker takes per
	// steal; small enough that a mistaken steal cannot unbalance the
	// victim, large enough to amortise the victim-lock acquisition.
	defaultStealBatch = 8
)

// StartIndex launches the index engine: the per-worker queues and the
// worker pool, but no scheduler thread.
func StartIndex(cfg Config) (*IndexScheduler, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("sched: %d workers", cfg.Workers)
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 512
	}
	if cfg.StealBatch <= 0 {
		cfg.StealBatch = defaultStealBatch
	}
	if cfg.Compiled == nil {
		return nil, fmt.Errorf("sched: Compiled is required")
	}
	if cfg.Service == nil && cfg.Exec == nil {
		return nil, fmt.Errorf("sched: Service or Exec is required")
	}
	s := &IndexScheduler{
		cfg:        cfg,
		queues:     make([]*ingress, cfg.Workers),
		keyIdx:     make([]keyShard, keyShardCount),
		clients:    make([]clientShard, clientShardCount),
		stealBatch: cfg.StealBatch,
		stealSig:   make(chan struct{}, 1),
		buckets:    make([][]*inode, keyShardCount),
		perWorker:  make([][]*inode, cfg.Workers),
		pendingLen: make([]int, cfg.Workers),
		stop:       make(chan struct{}),
	}
	for i := range s.queues {
		s.queues[i] = newIngress()
	}
	for i := range s.keyIdx {
		s.keyIdx[i].live = make(map[uint64]*keyEntry)
	}
	for i := range s.clients {
		s.clients[i].table = dedup.NewTable(cfg.DedupWindow)
		s.clients[i].inflight = make(map[requestID]struct{})
	}
	// Admission runs on the caller (the delivery pump); metering it as
	// "scheduler" keeps the CPU panels comparable with the scan engine —
	// and shows how little of a core O(1) routing needs.
	s.admitCPU = cfg.CPU.Role("scheduler")
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.work(w)
	}
	return s, nil
}

// bind attaches req to n and captures its id. The request stays the
// caller's: the engine reads it to execute and answer the command, but
// the stamps and at-most-once bookkeeping that follow Execute use the
// captured id, so completion never re-reads caller-owned memory.
func (n *inode) bind(req *command.Request) {
	n.req, n.client, n.seq = req, req.Client, req.Seq
}

// getInode returns a pooled plain inode (fields zeroed at put).
func (s *IndexScheduler) getInode() *inode {
	if v := s.ipool.Get(); v != nil {
		return v.(*inode)
	}
	return &inode{}
}

// putInode recycles a drained plain inode. Callers guarantee no live
// references remain: the conflict index no longer points at it
// (cleared under the shard lock before the call), and waiters hold its
// gate pointer, never the inode itself. Barrier and multi-key token
// inodes are never recycled here.
func (s *IndexScheduler) putInode(n *inode) {
	n.req, n.client, n.seq = nil, 0, 0
	n.keyed, n.reader = false, false
	n.key, n.set, n.worker = 0, 0, 0
	n.mkeys = n.mkeys[:0]
	n.waitW, n.waitR, n.gate, n.grp = nil, nil, nil, nil
	n.waitWs = n.waitWs[:0]
	n.grps = n.grps[:0]
	s.ipool.Put(n)
}

// getMK returns a pooled multi-key token inode with a fresh completion
// gate (gates are never reused; see gate).
func (s *IndexScheduler) getMK() *inode {
	if v := s.mkpool.Get(); v != nil {
		n := v.(*inode)
		n.gate = make(gate)
		return n
	}
	mk := &mkToken{}
	mk.keys = mk.keysBuf[:0]
	mk.owners = mk.ownersBuf[:0]
	return &inode{
		keyed: true, // never stealable, never counted as free
		mk:    mk,
		gate:  make(gate),
	}
}

// putMK recycles a completed multi-key token: no owner retains the
// inode past its deposit (the countdown is the only cross-owner
// state), and completeMulti cleared the conflict index under the shard
// locks before this call.
func (s *IndexScheduler) putMK(n *inode) {
	mk := n.mk
	mk.keys = mk.keys[:0]
	mk.owners = mk.owners[:0]
	mk.waitRs = mk.waitRs[:0]
	mk.waitWs = mk.waitWs[:0]
	n.req, n.client, n.seq = nil, 0, 0
	n.gate = nil
	n.waitW = nil
	n.worker = 0
	s.mkpool.Put(n)
}

func (s *IndexScheduler) getGroup() *readerGroup {
	if v := s.gpool.Get(); v != nil {
		return v.(*readerGroup)
	}
	return &readerGroup{}
}

// putGroup recycles a reader group once provably unreferenced: either
// its unique waiter saw done close (a sealed group is waited on by
// exactly one successor), or its key entry died with the group
// unsealed and empty. done channels are never reused — a closed
// channel cannot be re-armed — so sealing allocates a fresh one.
func (s *IndexScheduler) putGroup(g *readerGroup) {
	g.n, g.done = 0, nil
	s.gpool.Put(g)
}

// Submit routes one command to its worker queue in O(1). It reports
// false once the engine is stopping. Commands are ordered per conflict
// chain in Submit order.
func (s *IndexScheduler) Submit(req *command.Request) bool {
	s.single[0] = req
	return s.SubmitBatch(s.single[:])
}

// SubmitBatch admits one decided batch. The at-most-once filter runs
// per command, but each key shard is locked once per burst and each
// target worker's ingress deque is pushed once per burst — the lock
// amortisation that makes the pipeline batch-first. A barrier command
// flushes the work buffered before it, so barrier tokens partition
// every queue in admission order. The engine does not retain the
// slice. It reports false once the engine is stopping.
func (s *IndexScheduler) SubmitBatch(reqs []*command.Request) bool {
	select {
	case <-s.stop:
		return false
	default:
	}
	t0 := time.Now()
	for _, req := range reqs {
		s.cfg.Trace.StampID(obs.StageEngineAdmit, req.Client, req.Seq)
		if s.dropDuplicate(req) {
			continue
		}
		route := s.cfg.Compiled.Route(req.Cmd)
		kind := route.Kind
		var key uint64
		switch kind {
		case cdep.RouteKeyed:
			if k, ok := s.cfg.Compiled.Key(req.Cmd, req.Input); ok {
				key = k
			} else {
				// Keyless invocation of a keyed command may touch any
				// object: serialize it like a global command.
				kind = cdep.RouteBarrier
			}
		case cdep.RouteMultiKey:
			var ok bool
			s.mkScratch, ok = s.cfg.Compiled.AppendKeySet(s.mkScratch[:0], req.Cmd, req.Input)
			if !ok {
				// Undeterminable key set: synchronous mode.
				kind = cdep.RouteBarrier
			}
		}
		switch kind {
		case cdep.RouteBarrier:
			s.flush()
			s.admitBarrier(req, route)
		case cdep.RouteMultiKey:
			// Flush first so every earlier command of this burst is
			// already on its queue: the token (or reader) then lands
			// behind all of them, keeping one global admission order
			// across all queues.
			s.flush()
			if route.ReadOnly && !s.cfg.NoReaderSets {
				s.admitMultiKeyRead(req, route, s.mkScratch)
			} else {
				s.admitMultiKey(req, route, s.mkScratch)
			}
		case cdep.RouteKeyed:
			n := s.getInode()
			n.bind(req)
			n.keyed, n.key, n.set = true, key, route.Workers
			n.reader = route.ReadOnly && !s.cfg.NoReaderSets
			s.bufferKeyed(n)
		default:
			n := s.getInode()
			n.bind(req)
			n.set = route.Workers
			s.free = append(s.free, n)
		}
	}
	s.flush()
	s.admitCPU.Add(time.Since(t0))
	return true
}

// SubmitMarker admits a quiesce marker: a barrier token carrying a
// closure instead of a command. The buffered burst is flushed first,
// so the token partitions every queue in admission order — fn runs
// once every worker has drained up to its token, alone, before
// anything admitted later starts. It reports false once the engine is
// stopping.
func (s *IndexScheduler) SubmitMarker(fn func()) bool {
	if fn == nil {
		return true
	}
	select {
	case <-s.stop:
		return false
	default:
	}
	t0 := time.Now()
	s.flush()
	n := &inode{
		marker: fn,
		bar: &indexBarrier{
			executor: 0,
			arrive:   make(chan struct{}, len(s.queues)),
			release:  make(chan struct{}),
		},
	}
	s.token[0] = n
	for _, q := range s.queues {
		q.pushBatch(s.token[:])
	}
	s.admitCPU.Add(time.Since(t0))
	return true
}

// dropDuplicate applies the at-most-once filter: completed
// retransmissions are answered from the cache, duplicates whose
// original is still live are dropped (the same metastable
// retransmission collapse the scan engine defends against).
func (s *IndexScheduler) dropDuplicate(req *command.Request) bool {
	if s.cfg.Exec != nil {
		// External execution hook: the at-most-once layer moves to the
		// hook's owner (see Config.Exec).
		return false
	}
	cs := s.clientShard(req.Client)
	id := requestID{client: req.Client, seq: req.Seq}
	cs.mu.Lock()
	if out, dup := cs.table.Lookup(req.Client, req.Seq); dup {
		cs.mu.Unlock()
		s.respond(req, out)
		return true
	}
	if _, live := cs.inflight[id]; live {
		cs.mu.Unlock()
		return true
	}
	cs.inflight[id] = struct{}{}
	cs.mu.Unlock()
	return false
}

// bufferKeyed groups this burst's keyed commands by key shard so flush
// can lock each shard once. Same-key commands share a shard, so their
// admission order is preserved within the shard's bucket.
func (s *IndexScheduler) bufferKeyed(n *inode) {
	si := s.keyShardIndex(n.key)
	if len(s.buckets[si]) == 0 {
		s.touched = append(s.touched, int(si))
	}
	s.buckets[si] = append(s.buckets[si], n)
}

// flush places the buffered burst: every touched key shard is locked
// once, free commands are spread least-loaded, and every target
// worker's ingress is pushed once.
func (s *IndexScheduler) flush() {
	if len(s.touched) == 0 && len(s.free) == 0 {
		return
	}
	for _, si := range s.touched {
		ks := &s.keyIdx[si]
		ks.mu.Lock()
		for _, n := range s.buckets[si] {
			s.placeKeyedLocked(ks, n)
			s.pendingLen[n.worker]++
		}
		ks.mu.Unlock()
	}
	for _, n := range s.free {
		n.worker = s.leastLoaded(n.set)
		s.pendingLen[n.worker]++
	}
	for _, si := range s.touched {
		for _, n := range s.buckets[si] {
			s.addToWorker(n)
		}
		s.buckets[si] = s.buckets[si][:0]
	}
	s.touched = s.touched[:0]
	for _, n := range s.free {
		s.addToWorker(n)
	}
	s.free = s.free[:0]
	for _, w := range s.workersHit {
		ns := s.perWorker[w]
		s.pendingLen[w] = 0
		s.queues[w].pushBatch(ns)
		s.perWorker[w] = ns[:0]
		if !s.cfg.NoSteal && s.queues[w].freeLoad.Load() >= int64(s.stealBatch) {
			// A stealable backlog built up: ring the doorbell so a
			// parked worker rechecks the victim scan.
			select {
			case s.stealSig <- struct{}{}:
			default:
			}
		}
	}
	s.workersHit = s.workersHit[:0]
}

// addToWorker appends a placed command to its target queue's burst
// bucket, tracking which queues this burst touches.
func (s *IndexScheduler) addToWorker(n *inode) {
	if len(s.perWorker[n.worker]) == 0 {
		s.workersHit = append(s.workersHit, n.worker)
	}
	s.perWorker[n.worker] = append(s.perWorker[n.worker], n)
}

// placeKeyedLocked assigns one keyed command its target worker and its
// dependency gates. The caller holds the key's shard lock.
//
// Writers chain on one worker's FIFO (admission order = execution
// order) and wait for the reader set admitted since the previous
// writer. Readers are routed independently and wait only for the last
// admitted writer's completion gate. A successor admitted behind a
// multi-key token additionally latches the token's completion gate: a
// popped token may still be pending, so FIFO position alone does not
// imply the token completed. Every
// wait edge points to an earlier-admitted command and every queue is
// FIFO in admission order, so the wait graph is acyclic — no deadlock.
func (s *IndexScheduler) placeKeyedLocked(ks *keyShard, n *inode) {
	e := ks.live[n.key]
	if e == nil {
		e = ks.getEntry()
		ks.live[n.key] = e
	}
	e.total++
	if n.reader {
		if w := e.lastWriter; w != nil {
			// Rendezvous with the live write chain: latch onto the last
			// writer's completion gate, allocating it on first use.
			if w.gate == nil {
				w.gate = make(gate)
			}
			n.waitW = w.gate
		}
		if e.readers == nil {
			e.readers = s.getGroup()
		}
		e.readers.n++
		n.grp = e.readers
		// Readers fan out to their own routed workers instead of the
		// write chain's FIFO — this is what recovers hot-key read
		// concurrency.
		n.worker = s.leastLoaded(n.set)
		return
	}
	switch {
	case e.writers > 0:
		// Live write chain: append behind it (same worker FIFO
		// preserves admission order for the key).
		n.worker = e.worker
	default:
		// Idle write chain: a placement pin wins (§IV-D load-balancing
		// hint), else the least-loaded member of the compiled worker
		// set.
		if pw, ok := s.cfg.Compiled.PlacedWorker(n.key); ok && pw < len(s.queues) {
			n.worker = pw
		} else {
			n.worker = s.leastLoaded(n.set)
		}
	}
	if w := e.lastWriter; w != nil && w.mk != nil {
		// The predecessor is a multi-key token, which may still be
		// pending when this writer reaches the queue head: wait its
		// completion gate explicitly.
		n.waitW = w.gate
	}
	e.worker = n.worker
	e.writers++
	if g := e.readers; g != nil && g.n > 0 {
		g.done = make(chan struct{}) // seal: the writer waits for the drain
		n.waitR = g
	}
	e.readers = nil
	e.lastWriter = n
}

// Close stops the engine and waits for the workers to exit.
func (s *IndexScheduler) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	return nil
}

// admitBarrier enqueues one barrier token on every worker's queue. The
// token is fully enqueued before admission continues, so every command
// admitted earlier precedes it on its queue and every later command
// follows it — the rendezvous cannot deadlock. The compiled worker
// set's minimum member executes.
func (s *IndexScheduler) admitBarrier(req *command.Request, route cdep.Route) {
	executor := route.Workers.Min()
	if executor < 0 || executor >= len(s.queues) {
		executor = 0
	}
	n := &inode{
		bar: &indexBarrier{
			executor: executor,
			arrive:   make(chan struct{}, len(s.queues)),
			release:  make(chan struct{}),
		},
	}
	n.bind(req)
	s.token[0] = n
	for _, q := range s.queues {
		q.pushBatch(s.token[:])
	}
}

// admitMultiKey admits one multi-key command: a 2PL-style acquisition
// of every touched key, in the canonical sorted-key order, followed by
// ONE token on every distinct owner queue. The caller has flushed the
// buffered burst, so everything admitted earlier is already enqueued
// and the token partitions each owner queue in admission order. keys
// is sorted and deduplicated (admission scratch; copied into the
// token's inline buffer).
func (s *IndexScheduler) admitMultiKey(req *command.Request, route cdep.Route, keys []uint64) {
	n := s.getMK()
	n.bind(req)
	mk := n.mk
	mk.keys = append(mk.keys[:0], keys...)
	for _, key := range mk.keys {
		ks := s.keyShard(key)
		ks.mu.Lock()
		e := ks.live[key]
		if e == nil {
			e = ks.getEntry()
			ks.live[key] = e
		}
		e.total++
		if e.writers > 0 {
			// Live write chain: the token joins it on its worker, so
			// the chain's FIFO order is preserved for this key.
			// (worker already set in e.worker)
		} else if pw, ok := s.cfg.Compiled.PlacedWorker(key); ok && pw < len(s.queues) {
			e.worker = pw
		} else {
			e.worker = s.leastLoaded(route.Workers)
		}
		e.writers++
		if w := e.lastWriter; w != nil && w.mk != nil {
			// Predecessor multi-key token on a shared key: it may still
			// be pending when this token's owners deposit (a popped
			// token is not a completed token), so the executor waits
			// its completion gate explicitly.
			mk.waitWs = append(mk.waitWs, w.gate)
		}
		if g := e.readers; g != nil && g.n > 0 {
			g.done = make(chan struct{}) // seal: the executor waits for the drain
			mk.waitRs = append(mk.waitRs, g)
		}
		e.readers = nil
		e.lastWriter = n
		owner := e.worker
		ks.mu.Unlock()

		found := false
		for _, w := range mk.owners {
			if w == owner {
				found = true
				break
			}
		}
		if !found {
			mk.owners = append(mk.owners, owner)
			s.pendingLen[owner]++ // later keys' leastLoaded sees this token
		}
	}
	// Insertion sort: owner sets are tiny, and this keeps sort's
	// interface conversion off the admission path.
	for i := 1; i < len(mk.owners); i++ {
		for j := i; j > 0 && mk.owners[j] < mk.owners[j-1]; j-- {
			mk.owners[j], mk.owners[j-1] = mk.owners[j-1], mk.owners[j]
		}
	}
	// The countdown must be armed before any owner can pop the token.
	mk.pending.Store(int32(len(mk.owners)))
	s.token[0] = n
	for _, w := range mk.owners {
		s.pendingLen[w] = 0
		s.queues[w].pushBatch(s.token[:])
	}
}

// admitMultiKeyRead admits one read-only multi-key command (a snapshot
// read over a key set): instead of a token on every owner queue it
// behaves like a reader of EVERY touched key — it latches onto each
// key's last writer's completion gate and joins each key's reader
// group, then runs on its own least-loaded worker. The next writer of
// any touched key waits for the sealed reader groups exactly as it
// waits for single-key readers. Every wait edge (the keys' last
// writers) points to an earlier-admitted command, so the wait graph
// stays acyclic. The caller has flushed the buffered burst; keys is
// sorted and deduplicated (admission scratch; copied into the pooled
// inode's buffer).
func (s *IndexScheduler) admitMultiKeyRead(req *command.Request, route cdep.Route, keys []uint64) {
	n := s.getInode()
	n.bind(req)
	n.keyed = true // never stealable, never counted as free
	n.reader = true
	n.mkeys = append(n.mkeys[:0], keys...)
	for _, key := range n.mkeys {
		ks := s.keyShard(key)
		ks.mu.Lock()
		e := ks.live[key]
		if e == nil {
			e = ks.getEntry()
			ks.live[key] = e
		}
		e.total++
		if w := e.lastWriter; w != nil {
			// Latch onto the live write chain's completion, allocating
			// the gate on first use (multi-key writer tokens pre-allocate
			// theirs; see admitMultiKey).
			if w.gate == nil {
				w.gate = make(gate)
			}
			n.waitWs = append(n.waitWs, w.gate)
		}
		if e.readers == nil {
			e.readers = s.getGroup()
		}
		e.readers.n++
		n.grps = append(n.grps, e.readers)
		ks.mu.Unlock()
	}
	n.worker = s.leastLoaded(route.Workers)
	s.token[0] = n
	s.queues[n.worker].pushBatch(s.token[:])
}

// leastLoaded returns the member of the compiled worker set with the
// shortest ingress backlog (queued + executing, plus this burst's
// not-yet-pushed placements, plus the decaying stolen-from penalty —
// a chronically raided queue is draining slower than its load suggests,
// so it should not be preferred as the owner of idle keys). Ties break
// deterministically to the lowest worker id (the scan is ascending and
// strictly improving). A set with no member in this engine's worker
// range falls back to all workers.
func (s *IndexScheduler) leastLoaded(set command.Gamma) int {
	best, bestLen := -1, int64(1<<62)
	for w := range s.queues {
		if set != 0 && !set.Has(w) {
			continue
		}
		q := s.queues[w]
		l := q.load.Load() + int64(s.pendingLen[w]) + q.raided.Load()
		if l < bestLen {
			best, bestLen = w, l
		}
	}
	if best < 0 {
		return s.leastLoaded(0)
	}
	return best
}

// stealScratch is one worker's reusable steal buffers, sized once at
// worker start so the steal path performs no allocation.
type stealScratch struct {
	batch []*inode // taken commands, cap stealBatch
	keep  []*inode // scanned-but-kept prefix, cap = scan limit
}

// work is one pool worker draining its own ingress queue, stealing
// from the longest queue when its own runs dry.
func (s *IndexScheduler) work(w int) {
	defer s.wg.Done()
	q := s.queues[w]
	cpu := s.cfg.CPU.Role("worker")
	stealSig := s.stealSig
	if s.cfg.NoSteal {
		stealSig = nil
	}
	sc := &stealScratch{
		batch: make([]*inode, 0, s.stealBatch),
		keep:  make([]*inode, 0, 8*s.stealBatch),
	}
	for {
		n := q.pop()
		if n == nil {
			// The backlog cleared: decay the steal-aware placement
			// penalty so a once-raided queue becomes attractive again.
			if r := q.raided.Load(); r > 0 {
				q.raided.Store(r / 2)
			}
			if batch := s.steal(w, sc); len(batch) > 0 {
				for _, m := range batch {
					if !s.execute(m, cpu) {
						return
					}
					q.load.Add(-1)
				}
				continue
			}
			select {
			case <-q.wake:
				continue
			case <-stealSig:
				continue
			case <-s.stop:
				return
			}
		}
		switch {
		case n.bar != nil:
			if !s.rendezvous(w, n, cpu) {
				return
			}
		case n.mk != nil:
			// Draining a token is progress through the backlog just
			// like an empty-queue pop: decay the raided penalty here
			// too, so a queue fed a steady diet of multi-key tokens
			// (which never let it go empty) sheds the penalty as well.
			if r := q.raided.Load(); r > 0 {
				q.raided.Store(r / 2)
			}
			if n.mk.pending.Add(-1) == 0 {
				// Last depositor: every owner reached its token, so the
				// key set is claimed — execute here.
				s.cfg.Journal.Emit(obs.EvSchedHandoff, uint64(w), uint64(len(n.mk.keys)))
				if !s.executeMulti(n, cpu) {
					return
				}
			}
			// Otherwise this owner deposited and keeps draining the
			// unrelated work behind the token.
		default:
			if !n.keyed {
				q.freeLoad.Add(-1)
			}
			if !s.execute(n, cpu) {
				return
			}
		}
		q.load.Add(-1)
	}
}

// steal takes up to stealBatch non-keyed commands from the front of
// the ingress queue with the most stealable work. Keyed chains never
// migrate (their FIFO is the conflict order) and the scan stops at the
// first barrier or multi-key token, so a stolen command was admitted
// after every executed barrier and before every pending one —
// executing it on the thief is indistinguishable from the victim
// executing it. The scan is bounded, queues with no stealable work are
// skipped on an atomic read alone, and the scratch buffers make the
// path allocation-free.
func (s *IndexScheduler) steal(w int, sc *stealScratch) []*inode {
	if s.cfg.NoSteal {
		return nil
	}
	victim, most := -1, int64(0)
	for i := range s.queues {
		if i == w {
			continue
		}
		if l := s.queues[i].freeLoad.Load(); l > most {
			victim, most = i, l
		}
	}
	if victim < 0 {
		return nil
	}
	q := s.queues[victim]
	limit := 8 * s.stealBatch // bound the time under the victim's lock
	batch := sc.batch[:0]
	keep := sc.keep[:0]
	q.mu.Lock()
	if q.n < limit {
		limit = q.n
	}
	mask := len(q.buf) - 1
	scanned := 0
	for ; scanned < limit; scanned++ {
		n := q.buf[(q.head+scanned)&mask]
		if n.bar != nil || n.mk != nil {
			// Stop at rendezvous tokens (full or multi-key barriers):
			// nothing at or past one may jump it.
			break
		}
		if !n.keyed && len(batch) < s.stealBatch {
			batch = append(batch, n)
			continue
		}
		keep = append(keep, n)
	}
	if len(batch) > 0 {
		// Compact the scanned prefix in place: kept entries slide back
		// by len(batch) ring slots (their copies are already in keep,
		// so overwrites are safe in any order) and the head advances
		// past the vacated slots.
		for i, n := range keep {
			q.buf[(q.head+len(batch)+i)&mask] = n
		}
		for i := 0; i < len(batch); i++ {
			q.buf[(q.head+i)&mask] = nil
		}
		q.head = (q.head + len(batch)) & mask
		q.n -= len(batch)
	}
	q.mu.Unlock()
	if len(batch) > 0 {
		q.load.Add(-int64(len(batch)))
		left := q.freeLoad.Add(-int64(len(batch)))
		// Steal-aware placement feedback: record that this queue needed
		// raiding, so admission stops preferring it for idle keys.
		q.raided.Add(int64(len(batch)))
		s.stolen.Add(uint64(len(batch)))
		s.cfg.Journal.Emit(obs.EvSchedSteal, uint64(w), uint64(len(batch)))
		s.queues[w].load.Add(int64(len(batch)))
		if left > 0 {
			// More stealable backlog remains: cascade the doorbell so
			// another parked worker joins in.
			select {
			case s.stealSig <- struct{}{}:
			default:
			}
		}
	}
	return batch
}

// execute runs one non-barrier command after waiting out its gates:
// the predecessor's completion gate for readers and for successors of
// multi-key tokens, the sealed reader set for writers. Gate owners are
// always earlier-admitted commands, so the waits terminate. It reports
// false when the engine is stopping.
func (s *IndexScheduler) execute(n *inode, cpu *bench.RoleMeter) bool {
	if n.waitW != nil {
		select {
		case <-n.waitW:
		case <-s.stop:
			return false
		}
	}
	for _, g := range n.waitWs {
		select {
		case <-g:
		case <-s.stop:
			return false
		}
	}
	if g := n.waitR; g != nil {
		select {
		case <-g.done:
		case <-s.stop:
			return false
		}
		// This writer is the sealed group's unique waiter: recycle it.
		s.putGroup(g)
		n.waitR = nil
	}
	var start time.Time
	if cpu != nil {
		start = time.Now()
	}
	s.cfg.Trace.StampID(obs.StageExecStart, n.client, n.seq)
	output := s.exec(n.req)
	s.cfg.Trace.StampID(obs.StageExecEnd, n.client, n.seq)
	s.respond(n.req, output)
	if cpu != nil {
		cpu.Add(time.Since(start))
	}
	s.complete(n, output)
	return true
}

// executeMulti runs one multi-key token as its last-depositing owner.
// Every owner has deposited, so per-key FIFO order guarantees all
// earlier single-key commands of every touched key have completed;
// predecessor multi-key tokens (popped but possibly still pending) are
// waited out via their completion gates, and the sealed reader sets of
// the touched keys via their done channels. It reports false when the
// engine is stopping.
func (s *IndexScheduler) executeMulti(n *inode, cpu *bench.RoleMeter) bool {
	mk := n.mk
	for _, g := range mk.waitWs {
		select {
		case <-g:
		case <-s.stop:
			return false
		}
	}
	for _, g := range mk.waitRs {
		select {
		case <-g.done:
		case <-s.stop:
			return false
		}
		// The executor is each sealed group's unique waiter.
		s.putGroup(g)
	}
	mk.waitRs = mk.waitRs[:0]
	var start time.Time
	if cpu != nil {
		start = time.Now()
	}
	s.cfg.Trace.StampID(obs.StageExecStart, n.client, n.seq)
	output := s.exec(n.req)
	s.cfg.Trace.StampID(obs.StageExecEnd, n.client, n.seq)
	s.respond(n.req, output)
	if cpu != nil {
		cpu.Add(time.Since(start))
	}
	s.completeMulti(n, output)
	s.putMK(n)
	return true
}

// rendezvous runs one barrier token: the executor (the minimum of the
// compiled worker set) waits for every other worker to drain up to its
// token, executes the command alone, then releases them. It reports
// false when the engine is stopping.
func (s *IndexScheduler) rendezvous(w int, n *inode, cpu *bench.RoleMeter) bool {
	if w != n.bar.executor {
		select {
		case n.bar.arrive <- struct{}{}:
		case <-s.stop:
			return false
		}
		select {
		case <-n.bar.release:
			return true
		case <-s.stop:
			return false
		}
	}
	for i := 1; i < len(s.queues); i++ {
		select {
		case <-n.bar.arrive:
		case <-s.stop:
			return false
		}
	}
	var start time.Time
	if cpu != nil {
		start = time.Now()
	}
	if n.marker != nil {
		// Quiesce marker: every worker is parked at its token, so the
		// closure observes the service at one deterministic log
		// position. No response, no at-most-once record.
		n.marker()
		if cpu != nil {
			cpu.Add(time.Since(start))
		}
		close(n.bar.release)
		return true
	}
	s.cfg.Trace.StampID(obs.StageExecStart, n.client, n.seq)
	output := s.exec(n.req)
	s.cfg.Trace.StampID(obs.StageExecEnd, n.client, n.seq)
	s.respond(n.req, output)
	if cpu != nil {
		cpu.Add(time.Since(start))
	}
	s.complete(n, output)
	close(n.bar.release)
	return true
}

// recordDone records a completed request in the at-most-once layer
// (skipped entirely under an external execution hook).
func (s *IndexScheduler) recordDone(client, seq uint64, output []byte) {
	if s.cfg.Exec != nil {
		return
	}
	cs := s.clientShard(client)
	cs.mu.Lock()
	cs.table.Record(client, seq, output)
	delete(cs.inflight, requestID{client: client, seq: seq})
	cs.mu.Unlock()
}

// completeMulti releases a multi-key command: at-most-once recording,
// per-key conflict-index cleanup (in the same sorted-key order as
// admission), and the completion-gate close that successors of any
// touched key may be parked on. The token inode itself is recycled by
// the caller.
func (s *IndexScheduler) completeMulti(n *inode, output []byte) {
	s.recordDone(n.client, n.seq, output)
	for _, key := range n.mk.keys {
		ks := s.keyShard(key)
		ks.mu.Lock()
		if e := ks.live[key]; e != nil {
			e.total--
			e.writers--
			if e.lastWriter == n {
				e.lastWriter = nil
			}
			if e.total <= 0 {
				if g := e.readers; g != nil {
					// Unsealed, empty group: the dying entry held the
					// last reference.
					s.putGroup(g)
				}
				delete(ks.live, key)
				ks.putEntry(e)
			}
		}
		ks.mu.Unlock()
	}
	// The gate was pre-allocated at admission; any successor that
	// latched on did so under its key's shard lock, before the
	// lastWriter clearing above.
	close(n.gate)
}

// complete records the response for at-most-once, closes the command's
// writer gate (if a successor latched one on), releases it from the
// conflict index, and recycles the inode.
func (s *IndexScheduler) complete(n *inode, output []byte) {
	s.recordDone(n.client, n.seq, output)
	if !n.keyed {
		if n.bar == nil {
			s.putInode(n)
		}
		return
	}
	if len(n.mkeys) > 0 {
		// Multi-key reader: leave every touched key's reader group, in
		// the same sorted-key order as admission.
		for i, key := range n.mkeys {
			ks := s.keyShard(key)
			ks.mu.Lock()
			if e := ks.live[key]; e != nil {
				e.total--
				if g := n.grps[i]; g != nil {
					g.n--
					if g.done != nil && g.n == 0 {
						close(g.done)
					}
				}
				if e.total <= 0 {
					if g := e.readers; g != nil {
						s.putGroup(g)
					}
					delete(ks.live, key)
					ks.putEntry(e)
				}
			}
			ks.mu.Unlock()
		}
		s.putInode(n)
		return
	}
	ks := s.keyShard(n.key)
	ks.mu.Lock()
	if e := ks.live[n.key]; e != nil {
		e.total--
		if n.reader {
			if g := n.grp; g != nil {
				g.n--
				if g.done != nil && g.n == 0 {
					close(g.done)
				}
			}
		} else {
			e.writers--
			if e.lastWriter == n {
				e.lastWriter = nil
			}
		}
		if e.total <= 0 {
			if g := e.readers; g != nil {
				s.putGroup(g)
			}
			delete(ks.live, n.key)
			ks.putEntry(e)
		}
	}
	// n.gate is written by successor admissions under this shard's
	// lock; read it under the same lock, close it after.
	var g gate
	if !n.reader {
		g = n.gate
	}
	ks.mu.Unlock()
	if g != nil {
		close(g)
	}
	s.putInode(n)
}

func (s *IndexScheduler) respond(req *command.Request, output []byte) {
	Respond(s.cfg.Transport, req, output)
}

// exec runs one request through the configured execution hook.
func (s *IndexScheduler) exec(req *command.Request) []byte {
	if s.cfg.Exec != nil {
		return s.cfg.Exec(req)
	}
	return s.cfg.Service.Execute(req.Cmd, req.Input)
}

func (s *IndexScheduler) keyShard(key uint64) *keyShard {
	return &s.keyIdx[s.keyShardIndex(key)]
}

func (s *IndexScheduler) keyShardIndex(key uint64) uint64 {
	return mix64(key) % keyShardCount
}

func (s *IndexScheduler) clientShard(client uint64) *clientShard {
	return &s.clients[mix64(client)%clientShardCount]
}

// mix64 is a splitmix64-style finalizer spreading low-entropy ids
// across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stats reports the engine's work-stealing counters: stolen is the
// total number of commands migrated between ingress queues since start
// (monotonic); raided is the current sum of the per-queue decaying
// stolen-from penalties (a load-balance health signal — persistently
// non-zero means admission keeps placing work on queues that drain
// slower than their load suggests).
func (s *IndexScheduler) Stats() (stolen uint64, raided int64) {
	stolen = s.stolen.Load()
	for _, q := range s.queues {
		raided += q.raided.Load()
	}
	return stolen, raided
}

// EngineStats extracts the work-stealing counters from an engine;
// engines without stealing (the scan scheduler) report zeros.
func EngineStats(e Engine) (stolen uint64, raided int64) {
	if is, ok := e.(*IndexScheduler); ok {
		return is.Stats()
	}
	return 0, 0
}

var _ Engine = (*IndexScheduler)(nil)
var _ Engine = (*Scheduler)(nil)
