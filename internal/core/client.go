package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/transport"
)

// Client errors.
var (
	// ErrClientClosed is returned for calls issued against or pending
	// on a closed client proxy.
	ErrClientClosed = errors.New("core: client closed")
)

// ClientConfig configures a client proxy (paper §III/§IV-B: the proxy
// intercepts invocations, marshals them, multicasts them to the groups
// the C-G function selects, and returns the first replica response).
type ClientConfig struct {
	// ID must be unique among clients; it keys response matching and
	// the replicas' at-most-once tables.
	ID uint64
	// Sender multicasts requests. Its group list must be the same one
	// the replicas were wired with (k parallel groups [+ serial]).
	Sender *multicast.Sender
	// CG is the compiled Command-to-Groups function.
	CG *cdep.Compiled
	// Transport receives responses.
	Transport transport.Transport
	// ReplyAddr is the endpoint responses are sent to. Defaults to
	// "client/<ID>".
	ReplyAddr transport.Addr
	// RetryInterval is how long to wait for a response before
	// retransmitting (rotating the believed coordinator). Default 3s.
	RetryInterval time.Duration
	// Seed drives the random group choice for independent commands.
	Seed int64
	// Subsets, when non-nil, routes multi-worker commands whose γ
	// exactly matches a compiled subset onto that subset's dedicated
	// group instead of the shared serial group. Must be compiled from
	// the same configuration the replicas were wired with.
	Subsets *cdep.SubsetTable
}

// Client is a P-SMR client proxy. It is safe for concurrent use; a
// workload typically keeps a window of outstanding Submit calls.
type Client struct {
	cfg ClientConfig
	ep  transport.Endpoint

	mu      sync.Mutex
	rng     *rand.Rand
	seq     uint64
	pending map[uint64]*Call
	closed  bool
	// timers is the free list of stopped retransmit timers: Wait takes
	// one and returns it, so a client allocates one timer per call it
	// ever had outstanding at once rather than one per call.
	timers []*time.Timer

	done chan struct{}
}

// Call is one in-flight command invocation.
type Call struct {
	c     *Client
	seq   uint64
	group int
	frame []byte

	// answered and output are set by the demultiplexer, under the
	// client lock, from the first response; done then carries one
	// signal (or is closed if the client shuts down first).
	answered bool
	output   []byte
	done     chan struct{}
}

// NewClient starts a client proxy and its response demultiplexer.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Sender == nil || cfg.CG == nil || cfg.Transport == nil {
		return nil, errors.New("core: client needs Sender, CG and Transport")
	}
	if cfg.ReplyAddr == "" {
		cfg.ReplyAddr = transport.Addr(fmt.Sprintf("client/%d", cfg.ID))
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 3 * time.Second
	}
	ep, err := cfg.Transport.Listen(cfg.ReplyAddr)
	if err != nil {
		return nil, fmt.Errorf("core: client listen: %w", err)
	}
	c := &Client{
		cfg:     cfg,
		ep:      ep,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.ID))),
		pending: make(map[uint64]*Call),
		done:    make(chan struct{}),
	}
	go c.demux()
	return c, nil
}

// Close stops the proxy and fails all pending calls.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pending := c.pending
	c.pending = make(map[uint64]*Call)
	c.mu.Unlock()

	err := c.ep.Close()
	for _, call := range pending {
		close(call.done)
	}
	<-c.done
	return err
}

// Submit multicasts one command invocation and returns the in-flight
// call. The destination set γ is computed once and pinned, so
// retransmissions are idempotent even for randomly placed commands.
func (c *Client) Submit(cmd command.ID, input []byte) (*Call, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.seq++
	seq := c.seq
	gamma := c.cfg.CG.Groups(cmd, input, c.rng.Intn)
	call := &Call{
		c:     c,
		seq:   seq,
		group: c.physicalGroup(gamma),
		done:  make(chan struct{}, 1),
	}
	req := command.Request{
		Client: c.cfg.ID,
		Seq:    seq,
		Cmd:    cmd,
		Gamma:  gamma,
		Input:  input,
		Reply:  c.cfg.ReplyAddr,
	}
	// The request is encoded once, straight into the propose frame the
	// call keeps for every retransmission.
	frame, payload := c.cfg.Sender.NewFrame(call.group, command.EncodedRequestSize(&req))
	command.AppendRequest(payload[:0], &req)
	call.frame = frame
	c.pending[seq] = call
	c.mu.Unlock()

	if err := c.cfg.Sender.Send(call.group, call.frame); err != nil {
		if errors.Is(err, multicast.ErrProxyDown) {
			// The whole proxy tier is unreachable: fail the submit with
			// the distinct error instead of letting it pend forever —
			// retransmission cannot reach a coordinator either.
			c.forget(seq)
			return nil, err
		}
		// Otherwise keep the call pending; Wait will retransmit.
		_ = err
	}
	return call, nil
}

// physicalGroup maps a destination set to the single multicast group
// carrying it: the worker's own group for singletons, a dedicated
// subset group for an exact compiled-subset match, and the shared
// serial group otherwise (the paper's prototype restriction, §VI-A,
// which the subset table relaxes). Group numbering is worker groups
// 0..k-1, subset groups k..k+S-1 (canonical table order), serial last.
func (c *Client) physicalGroup(gamma command.Gamma) int {
	total := c.cfg.Sender.Groups()
	workerGroups := total
	if total > 1 {
		workerGroups = total - c.cfg.Subsets.Count() - 1
	}
	if gamma.Count() == 1 && gamma.Min() < workerGroups {
		return gamma.Min()
	}
	if idx, ok := c.cfg.Subsets.Lookup(gamma); ok {
		return workerGroups + idx
	}
	return total - 1 // serial group is last
}

// Invoke submits a command and waits for its response.
func (c *Client) Invoke(cmd command.ID, input []byte) ([]byte, error) {
	call, err := c.Submit(cmd, input)
	if err != nil {
		return nil, err
	}
	return call.Wait()
}

// Done returns a channel that becomes ready once the call's response
// has arrived, or is closed if the client shuts down first; Wait then
// returns without blocking. Prefer Wait unless selecting over many
// calls.
func (call *Call) Done() <-chan struct{} { return call.done }

// Wait blocks for the response, retransmitting (and rotating the
// believed group coordinator) on every RetryInterval.
func (call *Call) Wait() ([]byte, error) {
	c := call.c
	timer := c.getTimer()
	for {
		select {
		case _, ok := <-call.done:
			timer.Stop()
			c.mu.Lock()
			if ok {
				delete(c.pending, call.seq)
			}
			c.timers = append(c.timers, timer)
			c.mu.Unlock()
			if !ok {
				return nil, ErrClientClosed
			}
			return call.output, nil
		case <-timer.C:
			c.cfg.Sender.RotateLeader(call.group)
			_ = c.cfg.Sender.Send(call.group, call.frame)
			timer.Reset(c.cfg.RetryInterval)
		}
	}
}

// getTimer returns a retransmit timer armed for one RetryInterval,
// reusing a stopped one when the free list has it. Stop and Reset
// discard any pending expiry, so a reused timer never fires early.
func (c *Client) getTimer() *time.Timer {
	c.mu.Lock()
	if n := len(c.timers); n > 0 {
		t := c.timers[n-1]
		c.timers[n-1] = nil
		c.timers = c.timers[:n-1]
		c.mu.Unlock()
		t.Reset(c.cfg.RetryInterval)
		return t
	}
	c.mu.Unlock()
	return time.NewTimer(c.cfg.RetryInterval)
}

func (c *Client) forget(seq uint64) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// demux routes response frames to pending calls. Only the first
// response of a call is delivered (all replica responses are identical,
// paper §III); later duplicates are dropped.
func (c *Client) demux() {
	defer close(c.done)
	for frame := range c.ep.Recv() {
		resp, err := command.DecodeResponse(frame)
		if err != nil || resp.Client != c.cfg.ID {
			continue
		}
		c.mu.Lock()
		if call, ok := c.pending[resp.Seq]; ok && !call.answered {
			// Leave the entry until Wait consumes it; extra responses
			// find the call answered.
			call.answered, call.output = true, resp.Output
			call.done <- struct{}{}
		}
		c.mu.Unlock()
	}
}
