package core

// White-box negative tests for CheckInvariants: each case corrupts router
// state directly and asserts the matching invariant clause fires. The
// positive direction — the checker staying silent across millions of
// legitimate cycles — is covered by the netsim every-cycle audits; this
// file proves the auditor itself has teeth.
//
// One clause is deliberately absent: "bp outside the configured
// radix*dilation window" cannot fire while Settings validate, because
// Radix(d) = Outputs/d makes radix*dilation exactly Outputs, and the
// "invalid bp" clause already rejects bp >= Outputs first. It is kept in
// the checker as defense in depth for future dilation schemes where the
// window could be narrower than the physical port count.

import (
	"strings"
	"testing"
)

func freshRouter() *Router {
	cfg := Config{
		Inputs: 4, Outputs: 4, Width: 8, MaxDilation: 2,
		HeaderWords: 1, DataPipe: 2, MaxVTD: 0, RandomInputs: 1, ScanPaths: 1,
	}
	return NewRouter("wb", cfg, DefaultSettings(cfg), 5)
}

// connect puts fp into a fully consistent fpForward connection on bp so a
// later corruption isolates exactly one clause.
func connect(r *Router, fp, bp int8) {
	r.fwd[fp].state = fpForward
	r.fwd[fp].bp = bp
	r.busyBy[bp] = fp
	r.live |= 1 << uint(fp)
}

// closeOut detaches a consistent connection fp -> bp the way detach does,
// so a later corruption of the closer isolates exactly one clause.
func closeOut(r *Router, fp, bp int8) {
	connect(r, fp, bp)
	r.detach(0, int(fp))
	r.live &^= 1 << uint(fp)
}

func TestCheckInvariantsCatchesEachCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(r *Router)
		want    string // substring of the expected complaint
	}{
		{
			name:    "idle port holding a backward port",
			corrupt: func(r *Router) { r.fwd[0].bp = 3 },
			want:    "holds bp",
		},
		{
			name: "connected port with out-of-range bp",
			corrupt: func(r *Router) {
				r.fwd[1].state = fpForward
				r.fwd[1].bp = int8(r.cfg.Outputs) + 3
			},
			want: "invalid bp",
		},
		{
			name: "two ports claiming the same crosspoint",
			corrupt: func(r *Router) {
				connect(r, 0, 2)
				r.fwd[1].state = fpReversed
				r.fwd[1].bp = 2
			},
			want: "bp 2 claimed by fp0 and fp1",
		},
		{
			name: "busyBy disagreeing with the owning port",
			corrupt: func(r *Router) {
				connect(r, 0, 2)
				r.busyBy[2] = -1
			},
			want: "busyBy says",
		},
		{
			name: "buffer set claimed by two forward ports",
			corrupt: func(r *Router) {
				// The set is the backward port's: two forward connections
				// on one backward port would write one set of buffers.
				connect(r, 0, 2)
				r.fwd[3].state = fpForward
				r.fwd[3].bp = 2
				r.live |= 1 << 3
			},
			want: "bp 2 claimed by fp0 and fp3",
		},
		{
			name: "buffer set index outside the backing array",
			corrupt: func(r *Router) {
				// bufs has one set per backward port, so bp Outputs names
				// the set one past the end.
				connect(r, 0, 2)
				r.busyBy[2] = -1
				r.fwd[0].bp = int8(r.cfg.Outputs)
			},
			want: "fp0 connected with invalid bp 4",
		},
		{
			name: "buffer set claimed by a port and a closer",
			corrupt: func(r *Router) {
				// The set is the backward port's: a closer flushing the
				// port a connection holds would share its buffers.
				connect(r, 0, 2)
				closeOut(r, 1, 3)
				r.closers[0].bp = 2
			},
			want: "closer holds bp 2 but busyBy says 0",
		},
		{
			name: "second closer on one bp",
			corrupt: func(r *Router) {
				// What compacting the closers by copy without shortening
				// them would leave: two flushes of one backward port.
				closeOut(r, 0, 2)
				closeOut(r, 1, 3)
				r.closers[1] = r.closers[0]
			},
			want: "bp 2 flushed by two closers",
		},
		{
			name:    "fewer closer slots than backward ports",
			corrupt: func(r *Router) { r.closers = r.closers[: 0 : r.cfg.Outputs-1] },
			want:    "3 closer slots for 4 backward ports",
		},
		{
			name:    "queued words on a port with no bp",
			corrupt: func(r *Router) { r.fwd[1].qLen = 2 },
			want:    "fp1 in state IDLE holds no bp but queues words [0:2]",
		},
		{
			name: "queued words on a blocked port before its reply",
			corrupt: func(r *Router) {
				r.fwd[2].state = fpBlockedWait
				r.live |= 1 << 2
				r.fwd[2].qLen = 1
			},
			want: "fp2 in state BLOCKED-WAIT holds no bp but queues words [0:1]",
		},
		{
			name: "queue longer than the injWords region",
			corrupt: func(r *Router) {
				connect(r, 0, 2)
				r.fwd[0].qLen = uint8(r.injCap) + 1
			},
			want: "fp0 queue cursors [0:4] outside the 3-word region",
		},
		{
			name: "queue head past its length in a closer",
			corrupt: func(r *Router) {
				closeOut(r, 0, 2)
				r.closers[0].qHead = 2
			},
			want: "the closer on bp2 queue cursors [2:0]",
		},
		{
			name: "closer flushing an out-of-range bp",
			corrupt: func(r *Router) {
				r.closers = append(r.closers, closer{fp: 0, flow: flow{bp: -3}})
			},
			want: "closer with invalid bp",
		},
		{
			name: "closer whose bp is not marked flushing",
			corrupt: func(r *Router) {
				r.closers = append(r.closers, closer{fp: 0, flow: flow{bp: 1}})
				// busyBy[1] stays -1 (free) instead of -2 (flushing).
			},
			want: "closer holds bp",
		},
		{
			name: "busyBy naming an owner that claims nothing",
			corrupt: func(r *Router) {
				r.busyBy[3] = 2
			},
			want: "no connected port claims it",
		},
		{
			name: "flushing mark with no closer draining it",
			corrupt: func(r *Router) {
				r.busyBy[1] = -2
			},
			want: "marked flushing with no closer",
		},
		{
			name: "busyBy holding an undefined marker",
			corrupt: func(r *Router) {
				r.busyBy[0] = -7
			},
			want: "invalid marker",
		},
		{
			name: "live mask missing a non-idle port",
			corrupt: func(r *Router) {
				r.fwd[2].state = fpDrain // outputPass would never visit it
			},
			want: "live mask",
		},
		{
			name: "enabled mask stale after a settings write",
			corrupt: func(r *Router) {
				r.set.ForwardEnabled &^= 1 << 1 // bypassing SetForwardEnabled
				r.enabled = 1 << 1
			},
			want: "enabled mask",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := freshRouter()
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("fresh router must be consistent: %v", err)
			}
			tc.corrupt(r)
			err := r.CheckInvariants()
			if err == nil {
				t.Fatalf("corruption went undetected")
			}
			if ref := r.clauseWalk(); ref == nil || ref.Error() != err.Error() {
				t.Fatalf("CheckInvariants returned %q, the clause walk %v", err, ref)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("wrong clause fired: got %q, want it to mention %q",
					err, tc.want)
			}
		})
	}
}
