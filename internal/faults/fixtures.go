package faults

import (
	"fmt"

	"rme/internal/memory"
	"rme/internal/mutex"
	"rme/internal/word"
)

// This file holds the known-bad fixture algorithms the checker self-test
// suite uses for mutation testing, alongside BrokenTAS (broken.go): a
// checker that only ever passes on good algorithms proves nothing, so every
// verdict path — mutual exclusion violation, deadlock, crash-recovery
// amnesia — has a fixture that must trip it.

// BrokenTicket is a ticket lock with an off-by-one admission bug: waiters
// are admitted when serving+1 reaches their ticket instead of serving
// itself, so the process holding ticket t+1 enters while ticket t still owns
// the critical section. The violation needs no crashes and two processes, so
// both the exhaustive explorer and a random-axis campaign must report it with
// a replayable schedule.
type BrokenTicket struct{}

var _ mutex.Algorithm = BrokenTicket{}

// NewBrokenTicket returns the mutual-exclusion-violating fixture.
func NewBrokenTicket() BrokenTicket { return BrokenTicket{} }

// Name identifies the fixture.
func (BrokenTicket) Name() string { return "broken-ticket" }

// Recoverable reports false: the bug is in the admission test, not recovery.
func (BrokenTicket) Recoverable() bool { return false }

// Make allocates the ticket dispenser and the serving counter.
func (BrokenTicket) Make(mem memory.Allocator, n int) (mutex.Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("broken-ticket: need at least 1 process, got %d", n)
	}
	return &brokenTicketInstance{
		next:    mem.NewCell("bticket.next", memory.Shared, 0),
		serving: mem.NewCell("bticket.serving", memory.Shared, 0),
	}, nil
}

type brokenTicketInstance struct {
	next, serving memory.Cell
}

func (in *brokenTicketInstance) Bind(env memory.Env) mutex.Handle {
	return &brokenTicketHandle{env: env, next: in.next, serving: in.serving}
}

type brokenTicketHandle struct {
	mutex.Unrecoverable

	env           memory.Env
	next, serving memory.Cell
}

// Lock draws a ticket, then waits for the buggy admission predicate: v+1 >= t
// admits the holder of ticket serving+1 one turn early.
func (h *brokenTicketHandle) Lock() {
	t := h.env.Add(h.next, 1)
	h.env.SpinUntil(h.serving, func(v word.Word) bool { return v+1 >= t })
}

// Unlock passes the turn.
func (h *brokenTicketHandle) Unlock() {
	h.env.Add(h.serving, 1)
}

// WedgingTAS is a test-and-set lock whose losers wait for a sentinel value
// the winner never writes: the loser of the CAS race spins for the lock word
// to become 2, but Unlock writes 0. Solo runs complete (the CAS wins
// immediately), so the wedge only appears under contention — exactly the
// kind of progress bug the exhaustive deadlock check and the campaign's
// deadlock-freedom oracle must both surface.
type WedgingTAS struct{}

var _ mutex.Algorithm = WedgingTAS{}

// NewWedgingTAS returns the deadlocking fixture.
func NewWedgingTAS() WedgingTAS { return WedgingTAS{} }

// Name identifies the fixture.
func (WedgingTAS) Name() string { return "wedging-tas" }

// Recoverable reports false.
func (WedgingTAS) Recoverable() bool { return false }

// Make allocates the lock word (0 = free, 1 = held).
func (WedgingTAS) Make(mem memory.Allocator, n int) (mutex.Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("wedging-tas: need at least 1 process, got %d", n)
	}
	return &wedgingInstance{lock: mem.NewCell("wtas.lock", memory.Shared, 0)}, nil
}

type wedgingInstance struct {
	lock memory.Cell
}

func (in *wedgingInstance) Bind(env memory.Env) mutex.Handle {
	return &wedgingHandle{env: env, lock: in.lock}
}

type wedgingHandle struct {
	mutex.Unrecoverable

	env  memory.Env
	lock memory.Cell
}

// Lock tries the CAS once; on failure it waits for the value 2, which no
// code path ever stores.
func (h *wedgingHandle) Lock() {
	for h.env.CAS(h.lock, 0, 1) != 0 {
		h.env.SpinUntil(h.lock, func(v word.Word) bool { return v == 2 })
	}
}

// Unlock frees the lock — with the value the waiters are not watching for.
func (h *wedgingHandle) Unlock() {
	h.env.Write(h.lock, 0)
}
