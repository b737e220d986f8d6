// Package serve is EchoWrite's multi-session recognition service: it
// accepts interleaved audio chunks from many concurrent clients and runs
// them through the existing pipeline safely.
//
// The building blocks are an EnginePool (pre-warmed recognizer state so
// sessions never pay the 8192-pt STFT setup per request), a
// ShardedManager that owns per-session pipeline.Stream state and runs
// each job on the caller's goroutine behind per-shard admission control
// (a bounded number running, a bounded number waiting, backpressure
// beyond that), an HTTP front end (Server), and a load harness
// (RunLoad) used by cmd/ewload.
package serve

import (
	"fmt"
	"sync"

	"repro/internal/pipeline"
)

// EngineFactory builds one recognizer engine. The default factory wires
// pipeline.DefaultConfig; serving setups that want calibrated templates
// install their own (see calibrate.NewCalibratedEngine).
type EngineFactory func() (*pipeline.Engine, error)

// EnginePool is a free-list of pipeline streams, each bound to its own
// Engine (engines are not safe for concurrent use, so pooling whole
// engine+stream pairs is the unit of reuse). Unlike sync.Pool the free
// list survives GC cycles: a warmed engine holds the FFT plan, window
// tables and analytic templates, which are exactly the allocations the
// pool exists to amortize.
type EnginePool struct {
	factory EngineFactory

	mu      sync.Mutex
	free    []*pipeline.Stream // guarded by mu
	created int                // guarded by mu
	reused  int                // guarded by mu
}

// PoolStats is a point-in-time view of pool occupancy.
type PoolStats struct {
	// Created counts engines built over the pool's lifetime.
	Created int `json:"created"`
	// Reused counts checkouts served from the free list — the
	// amortization the pool exists for; a low reuse rate under load
	// means Prewarm is too small.
	Reused int `json:"reused"`
	// Free counts streams currently checked in.
	Free int `json:"free"`
}

// NewEnginePool builds a pool around factory and pre-warms it with
// prewarm ready-to-use streams. A nil factory uses the default pipeline
// configuration.
func NewEnginePool(factory EngineFactory, prewarm int) (*EnginePool, error) {
	if factory == nil {
		factory = func() (*pipeline.Engine, error) {
			return pipeline.NewEngine(pipeline.DefaultConfig())
		}
	}
	p := &EnginePool{factory: factory}
	for i := 0; i < prewarm; i++ {
		s, err := p.build()
		if err != nil {
			return nil, fmt.Errorf("serve: prewarm engine %d: %w", i, err)
		}
		p.free = append(p.free, s)
	}
	return p, nil
}

func (p *EnginePool) build() (*pipeline.Stream, error) {
	eng, err := p.factory()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.created++
	p.mu.Unlock()
	return pipeline.NewStream(eng), nil
}

// Get checks out a stream, building a fresh engine only when the free
// list is empty. The returned stream is always in the reset state.
func (p *EnginePool) Get() (*pipeline.Stream, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.reused++
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	return p.build()
}

// Put resets a stream and returns it to the free list. The caller must
// no longer use the stream afterwards.
func (p *EnginePool) Put(s *pipeline.Stream) {
	if s == nil {
		return
	}
	s.Reset()
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Stats reports pool occupancy.
func (p *EnginePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Created: p.created, Reused: p.reused, Free: len(p.free)}
}
