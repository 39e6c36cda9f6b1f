// Package norep implements the paper's non-replicated baseline
// (§VI-B): a single multi-threaded server directly connected to
// clients, with the same scheduler-worker architecture as sP-SMR but
// no ordering protocol underneath. It isolates the cost of the
// scheduler from the cost of atomic multicast — the paper observes
// no-rep's throughput slightly above sP-SMR's for exactly this reason.
package norep

import (
	"fmt"
	"runtime"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/sched"
	"github.com/psmr/psmr/internal/transport"
)

// ServerConfig configures the non-replicated server.
type ServerConfig struct {
	// Addr is the endpoint clients send requests to.
	Addr transport.Addr
	// Workers is the execution pool size (scheduler thread excluded).
	Workers int
	// Service is the state machine.
	Service command.Service
	// Spec is the service's C-Dep for conflict queries.
	Spec cdep.Spec
	// Transport carries all traffic.
	Transport transport.Transport
	// Scheduler selects the scheduling engine (scan or index-based).
	Scheduler sched.SchedulerKind
	// QueueBound sizes the scheduler hand-off channel.
	QueueBound int
	// DedupWindow bounds the at-most-once table.
	DedupWindow int
	// AdmitBatch caps how many already-arrived requests the server
	// drains into one SubmitBatch. Default 64. There is no ordered
	// batch stream here, so the server forms admission bursts
	// opportunistically: whatever is queued on the endpoint goes down
	// in one engine call.
	AdmitBatch int
	// Tuning carries the pipeline knobs; the zero value enables
	// reader sets, work stealing and the admission yield.
	Tuning sched.Tuning
	// CPU optionally meters scheduler and worker busy time.
	CPU *bench.CPUMeter
}

// Server is a running no-rep server.
type Server struct {
	ep         transport.Endpoint
	scheduler  sched.Engine
	admitBatch int
	yieldEvery int // admission yield period; 0 disables
	done       chan struct{}
}

// StartServer launches the server.
func StartServer(cfg ServerConfig) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "norep/server"
	}
	compiled, err := cdep.Compile(cfg.Spec, max(cfg.Workers, 1))
	if err != nil {
		return nil, fmt.Errorf("norep: compile C-Dep: %w", err)
	}
	if cfg.AdmitBatch <= 0 {
		cfg.AdmitBatch = 64
	}
	scheduler, err := sched.StartEngine(sched.Config{
		Kind:        cfg.Scheduler,
		Workers:     cfg.Workers,
		Service:     cfg.Service,
		Compiled:    compiled,
		Transport:   cfg.Transport,
		QueueBound:  cfg.QueueBound,
		DedupWindow: cfg.DedupWindow,
		CPU:         cfg.CPU,
		Tuning:      cfg.Tuning,
	})
	if err != nil {
		return nil, fmt.Errorf("norep: start scheduler: %w", err)
	}
	ep, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		_ = scheduler.Close()
		return nil, fmt.Errorf("norep: listen: %w", err)
	}
	yieldEvery := cfg.Tuning.AdmitYieldEvery
	if yieldEvery <= 0 {
		yieldEvery = 64
	}
	if cfg.Tuning.NoAdmitYield {
		yieldEvery = 0
	}
	s := &Server{
		ep:         ep,
		scheduler:  scheduler,
		admitBatch: cfg.AdmitBatch,
		yieldEvery: yieldEvery,
		done:       make(chan struct{}),
	}
	go s.serve()
	return s, nil
}

// Close stops the server.
func (s *Server) Close() error {
	err := s.ep.Close()
	<-s.done
	_ = s.scheduler.Close()
	return err
}

// serve feeds inbound requests to the scheduler in arrival order. It
// blocks for the first frame of a burst, then drains whatever else has
// already arrived (up to AdmitBatch) into one SubmitBatch, so the
// engine pays its admission synchronization once per burst. Under low
// load every burst is a single command; under high load the bursts
// grow toward AdmitBatch by themselves.
//
// Unlike the sP-SMR pump, nothing paces this loop: with fewer cores
// than runnable goroutines the admission loop can stay hot while the
// workers starve behind it, convoying completions into rare long
// stalls (the 1-core p50≈0 / 50-300ms-tail artifact). Yielding every
// Tuning.AdmitYieldEvery admitted commands hands the core to the
// workers at a bounded cadence.
func (s *Server) serve() {
	defer close(s.done)
	recv := s.ep.Recv()
	admitted := 0
	maybeYield := func(n int) {
		if s.yieldEvery == 0 {
			return
		}
		admitted += n
		if admitted >= s.yieldEvery {
			admitted = 0
			runtime.Gosched()
		}
	}
	for frame := range recv {
		reqs := make([]*command.Request, 0, s.admitBatch)
		if req, _, err := command.DecodeRequest(frame); err == nil {
			reqs = append(reqs, req)
		}
	drain:
		for len(reqs) < s.admitBatch {
			select {
			case more, ok := <-recv:
				if !ok {
					break drain
				}
				if req, _, err := command.DecodeRequest(more); err == nil {
					reqs = append(reqs, req)
				}
			default:
				break drain
			}
		}
		if len(reqs) == 0 {
			continue
		}
		if !s.scheduler.SubmitBatch(reqs) {
			return
		}
		maybeYield(len(reqs))
	}
}
