package core

import "sync"

// scatterPool applies received data frames concurrently on the destination.
// The receive loop stays a single reader (one goroutine owns conn.Recv) and
// hands each apply — a device write, a page write, or a post-copy
// gate.ReceiveBlock — to the pool; control frames call drain so every apply
// sent before a phase boundary lands before the phase advances. That
// preserves the single-stream apply semantics: within one iteration each
// block/page appears once, so concurrent applies never conflict, and
// cross-iteration rewrites are ordered by the drain at the iteration's
// control frame.
//
// With workers <= 1 the pool runs every apply inline, byte-for-byte the
// seed's sequential behavior (errors surface immediately rather than at the
// next drain). A nil pool behaves the same way.
type scatterPool struct {
	jobs chan func() error

	mu      sync.Mutex
	cond    *sync.Cond
	pending int
	err     error // first apply error, sticky
	wg      sync.WaitGroup
}

// newScatterPool starts workers appliers; workers <= 1 selects inline mode.
func newScatterPool(workers int) *scatterPool {
	p := &scatterPool{}
	p.cond = sync.NewCond(&p.mu)
	if workers <= 1 {
		return p
	}
	p.jobs = make(chan func() error, workers*2)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.jobs {
				err := fn()
				p.mu.Lock()
				if err != nil && p.err == nil {
					p.err = err
				}
				p.pending--
				if p.pending == 0 {
					p.cond.Broadcast()
				}
				p.mu.Unlock()
			}
		}()
	}
	return p
}

// do applies fn, inline or on a worker. In pooled mode a past apply error is
// returned eagerly so the receive loop aborts instead of queueing onto a
// failed device.
func (p *scatterPool) do(fn func() error) error {
	if p == nil || p.jobs == nil {
		return fn()
	}
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	p.pending++
	p.mu.Unlock()
	p.jobs <- fn
	return nil
}

// drain blocks until every queued apply has landed and returns the first
// apply error, if any.
func (p *scatterPool) drain() error {
	if p.jobs == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	return p.err
}

// close drains and stops the workers. Safe to call once.
func (p *scatterPool) close() {
	if p.jobs == nil {
		return
	}
	close(p.jobs)
	p.wg.Wait()
}
