package core

import (
	"fmt"
	"math/bits"
)

// CheckInvariants audits the router's internal consistency and returns the
// first violation found, or nil. It is intended for simulation test
// harnesses that want continuous structural checking under load:
//
//  1. ownership is bijective: busyBy[bp] == fp implies fwd[fp].bp == bp,
//     and a forward port's bp implies matching busyBy;
//  2. no two forward ports claim the same backward port;
//  3. every buffer set in [0, Inputs+Outputs) has exactly one holder (a
//     forward port, a closer or the free pool), so a connected port has
//     its own pipeline of the configured depth, and every inject and outQ
//     cursor lies within the injWords region it indexes;
//  4. an allocated backward port lies within the configured dilation's
//     direction structure;
//  5. detached closers hold only ports marked as flushing (-2);
//  6. the hot header's masks agree with the state they summarize: live
//     names exactly the non-idle forward ports, enabled exactly the
//     enabled-and-attached ones (valid between cycles, which is when
//     harnesses call this).
func (r *Router) CheckInvariants() error {
	// claimed[bp] is the claiming forward port plus one, 0 while unclaimed:
	// on the stack, because harnesses call this for every router every cycle.
	var claimed [MaxPorts]int8
	// held has a bit per buffer set, set once a holder has claimed it.
	var held setMask
	for fp := range r.fwd {
		p := &r.fwd[fp]
		if !r.claimSet(&held, &p.flow) {
			return r.flowError(&held, &p.flow, "fp", fp)
		}
		switch p.state {
		case fpIdle, fpBlockedWait, fpBlockedReply, fpDrain:
			if p.bp != -1 {
				return fmt.Errorf("%s: fp%d in state %v holds bp %d", r.name, fp, p.state, p.bp)
			}
		case fpHeader, fpForward, fpReversed:
			if p.bp < 0 || int(p.bp) >= r.cfg.Outputs {
				return fmt.Errorf("%s: fp%d connected with invalid bp %d", r.name, fp, p.bp)
			}
			if prev := claimed[p.bp]; prev != 0 {
				return fmt.Errorf("%s: bp %d claimed by fp%d and fp%d", r.name, p.bp, prev-1, fp)
			}
			claimed[p.bp] = int8(fp + 1)
			if int(r.busyBy[p.bp]) != fp {
				return fmt.Errorf("%s: fp%d holds bp %d but busyBy says %d",
					r.name, fp, p.bp, r.busyBy[p.bp])
			}
			if int(p.bp) >= r.Radix()*r.set.Dilation {
				return fmt.Errorf("%s: fp%d bp %d outside the configured radix*dilation window",
					r.name, fp, p.bp)
			}
		}
	}
	for i := range r.closers {
		c := &r.closers[i]
		if c.bp < 0 || int(c.bp) >= r.cfg.Outputs {
			return fmt.Errorf("%s: closer with invalid bp %d", r.name, c.bp)
		}
		if r.busyBy[c.bp] != -2 {
			return fmt.Errorf("%s: closer holds bp %d but busyBy says %d",
				r.name, c.bp, r.busyBy[c.bp])
		}
		if !r.claimSet(&held, &c.flow) {
			return r.flowError(&held, &c.flow, "the closer on bp", int(c.bp))
		}
	}
	for bp, owner := range r.busyBy {
		switch {
		case owner >= 0:
			if claimed[bp]-1 != owner {
				return fmt.Errorf("%s: busyBy[%d] = fp%d but no connected port claims it",
					r.name, bp, owner)
			}
		case owner == -2:
			found := false
			for _, c := range r.closers {
				if int(c.bp) == bp {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("%s: bp %d marked flushing with no closer", r.name, bp)
			}
		case owner != -1:
			return fmt.Errorf("%s: busyBy[%d] has invalid marker %d", r.name, bp, owner)
		}
	}
	free := r.closers[len(r.closers):cap(r.closers)]
	for i := range free {
		if f := (flow{set: free[i].set}); !r.claimSet(&held, &f) {
			return r.flowError(&held, &f, "the free closer slot ", len(r.closers)+i)
		}
	}
	// Each claim took a distinct set in range, so every set is held exactly
	// when the claims number Inputs+Outputs (they fall short if a holder
	// went missing: the closers' capacity shrank).
	if sets := r.cfg.Inputs + r.cfg.Outputs; bits.OnesCount64(held[0])+bits.OnesCount64(held[1]) != sets {
		for s := 0; s < sets; s++ {
			if !held.has(s) {
				return fmt.Errorf("%s: buffer set %d leaked: no port, closer or free closer slot holds it", r.name, s)
			}
		}
	}
	var live uint64
	bit := uint64(1)
	for fp := range r.fwd {
		if r.fwd[fp].state != fpIdle {
			live |= bit
		}
		bit <<= 1
	}
	if r.live != live {
		return fmt.Errorf("%s: live mask %#x but the non-idle forward ports are %#x", r.name, r.live, live)
	}
	if watched := r.watchedPorts(); r.enabled != watched {
		return fmt.Errorf("%s: enabled mask %#x but the enabled, attached forward ports are %#x", r.name, r.enabled, watched)
	}
	return nil
}

// setMask has a bit per buffer set: Inputs+Outputs <= 2*MaxPorts of them.
type setMask [2 * MaxPorts / 64]uint64

func (m *setMask) has(s int) bool { return m[s>>6&1]>>(s&63)&1 != 0 }

// claimSet records f's claim on its buffer set in held. It reports false,
// claiming nothing, if the set index is out of range or already claimed or
// a cursor pair is not within its injWords region; flowError says which.
func (r *Router) claimSet(held *setMask, f *flow) bool {
	if int(f.set) >= r.cfg.Inputs+r.cfg.Outputs || held.has(int(f.set)) ||
		f.injHead > f.injLen || int(f.injLen) > r.injCap ||
		f.outHead > f.outLen || int(f.outLen) > r.injCap {
		return false
	}
	held[f.set>>6&1] |= 1 << (f.set & 63)
	return true
}

// flowError words the violation claimSet found in the flow of forward port
// or closer who+n.
func (r *Router) flowError(held *setMask, f *flow, who string, n int) error {
	switch sets := r.cfg.Inputs + r.cfg.Outputs; {
	case int(f.set) >= sets:
		return fmt.Errorf("%s: %s%d holds buffer set %d outside [0, %d)", r.name, who, n, f.set, sets)
	case held.has(int(f.set)):
		return fmt.Errorf("%s: buffer set %d claimed twice, the second time by %s%d", r.name, f.set, who, n)
	case f.injHead > f.injLen || int(f.injLen) > r.injCap:
		return fmt.Errorf("%s: %s%d inject cursors [%d:%d] outside the %d-word region", r.name, who, n, f.injHead, f.injLen, r.injCap)
	default:
		return fmt.Errorf("%s: %s%d outQ cursors [%d:%d] outside the %d-word region", r.name, who, n, f.outHead, f.outLen, r.injCap)
	}
}
