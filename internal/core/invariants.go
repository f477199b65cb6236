package core

import "fmt"

// CheckInvariants audits the router's internal consistency and returns the
// first violation found, or nil. It is intended for simulation test
// harnesses that want continuous structural checking under load:
//
//  1. ownership is bijective: busyBy[bp] == fp implies fwd[fp].bp == bp,
//     and a forward port's bp implies matching busyBy;
//  2. no two forward ports claim the same backward port;
//  3. connected states carry a pipeline of the configured depth;
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
	for fp := range r.fwd {
		p := &r.fwd[fp]
		switch p.state {
		case fpIdle, fpBlockedWait, fpBlockedReply, fpDrain:
			if p.bp != -1 {
				return fmt.Errorf("%s: fp%d in state %v holds bp %d", r.name, fp, p.state, p.bp)
			}
		case fpHeader, fpForward, fpReversed:
			if p.bp < 0 || p.bp >= r.cfg.Outputs {
				return fmt.Errorf("%s: fp%d connected with invalid bp %d", r.name, fp, p.bp)
			}
			if prev := claimed[p.bp]; prev != 0 {
				return fmt.Errorf("%s: bp %d claimed by fp%d and fp%d", r.name, p.bp, prev-1, fp)
			}
			claimed[p.bp] = int8(fp + 1)
			if r.busyBy[p.bp] != fp {
				return fmt.Errorf("%s: fp%d holds bp %d but busyBy says %d",
					r.name, fp, p.bp, r.busyBy[p.bp])
			}
			if len(p.pipe) != r.cfg.DataPipe {
				return fmt.Errorf("%s: fp%d pipe depth %d != dp %d",
					r.name, fp, len(p.pipe), r.cfg.DataPipe)
			}
			if p.bp >= r.Radix()*r.set.Dilation {
				return fmt.Errorf("%s: fp%d bp %d outside the configured radix*dilation window",
					r.name, fp, p.bp)
			}
		}
	}
	for _, c := range r.closers {
		if c.bp < 0 || c.bp >= r.cfg.Outputs {
			return fmt.Errorf("%s: closer with invalid bp %d", r.name, c.bp)
		}
		if r.busyBy[c.bp] != -2 {
			return fmt.Errorf("%s: closer holds bp %d but busyBy says %d",
				r.name, c.bp, r.busyBy[c.bp])
		}
	}
	for bp, owner := range r.busyBy {
		switch {
		case owner >= 0:
			if int(claimed[bp])-1 != owner {
				return fmt.Errorf("%s: busyBy[%d] = fp%d but no connected port claims it",
					r.name, bp, owner)
			}
		case owner == -2:
			found := false
			for _, c := range r.closers {
				if c.bp == bp {
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
