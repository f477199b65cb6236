package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"

	"metro/internal/nic"
	"metro/internal/topo"
	"metro/internal/word"
)

// TestCallbackOrderPin holds the stream of completions and deliveries a
// network hands its hooks, as one digest per scenario and worker count:
// every OnResult and OnDeliver call in the order it was made, with its
// endpoint, kind, message ID, Delivered or intact flag, payload (or reply)
// bytes and Result.Done. Each scenario is a closed loop: a fixed number of
// messages stay outstanding, every completion replaced between steps by a
// seeded draw. Where callbacks are buffered, when they fire and which
// goroutine runs the model must leave these digests alone.
func TestCallbackOrderPin(t *testing.T) {
	const cascade2 = "c4efebb8473c30a4069aa5453cd8727e59092c9f03d3217cc41b6db27911e3a1"
	scale, err := topo.Scale(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                string
		p                   Params
		outstanding, cycles int
		fault               func(*Network) // installed after Build; nil: none
		digest              string
	}{
		// The Figure 3 multibutterfly, with one corrupting wire so some
		// deliveries arrive damaged and their messages retry.
		{"figure3", Params{
			Spec: topo.Figure3(), Width: 8, DataPipe: 2, LinkDelay: 1,
			Seed: 71, RetryLimit: 600, ListenTimeout: 200,
		}, 24, 1500, func(n *Network) {
			n.OutLink(0, 3, 1).SetCorruptor(func(w word.Word) word.Word {
				if w.Kind == word.Data && w.Payload&7 == 1 {
					w.Payload ^= 0x20
				}
				return w
			}, nil)
		}, "6f74a8f26185412b3ce35a0266691ff609bb413cc39f8a5bb97bfc3cd46f5f4a"},
		{"cascade2", Params{
			Spec: topo.Figure1(), Width: 4, CascadeWidth: 2, DataPipe: 2,
			LinkDelay: 1, Seed: 29, RetryLimit: 400, ListenTimeout: 150,
		}, 8, 1200, nil, cascade2},
		// cascade2 with a stuck payload bit on lane 1 only of one
		// stage-0 output: the lanes see different words, so their random
		// draws part ways and the wired-AND check kills connections. Each
		// lane's random stream must stay its own column's.
		{"cascade2-lanefault", Params{
			Spec: topo.Figure1(), Width: 4, CascadeWidth: 2, DataPipe: 2,
			LinkDelay: 1, Seed: 29, RetryLimit: 400, ListenTimeout: 150,
		}, 8, 1200, func(n *Network) {
			n.tierLink(1, 1, 1).SetCorruptor(func(w word.Word) word.Word {
				w.Payload |= 0x1
				return w
			}, nil)
		}, "c6b68b27de414e6efc9bf5e839fe94e39b08d30f111378b34c512d3921b3ca00"},
		// Request-reply with a per-destination delay, as examples/dsm
		// drives it; the hooks are pure, as Workers requires.
		{"responder", Params{
			Spec: topo.Figure3(), Width: 8, DataPipe: 1, LinkDelay: 1,
			FastReclaim: true, Seed: 5, RetryLimit: 300, ListenTimeout: 400,
			Responder: func(dest int, req []byte) []byte {
				if len(req) == 0 || req[0]&7 == 0 {
					return nil // some requests take no reply payload
				}
				out := make([]byte, int(req[0]&7))
				for i := range out {
					out[i] = req[i%len(req)] ^ byte(dest)
				}
				return out
			},
			ResponderDelay: func(dest int, req []byte) int { return (dest + len(req)) % 5 },
		}, 16, 1500, nil, "b4a8c42ad494734b38ed76e7cdc7145bb7a1e7b5325f798429e389f291760c4c"},
		{"scale1k", Params{
			Spec: scale, Width: 8, DataPipe: 2, LinkDelay: 1,
			Seed: 71, RetryLimit: 600, ListenTimeout: 200,
		}, 128, 1200, nil, "747e8900c3a9f291f05a576ff84d2b24392c4961b47c010893785554edae3ac5"},
	} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(tc.name+"/w"+strconv.Itoa(workers), func(t *testing.T) {
				p := tc.p
				p.Workers = workers
				got := callbackDigest(t, p, tc.outstanding, tc.cycles, tc.fault)
				if got != tc.digest {
					t.Errorf("callback digest %s, want %s", got, tc.digest)
				}
				if tc.fault != nil && got == cascade2 {
					t.Errorf("callback digest %s is the fault-free cascade2's", got)
				}
			})
		}
	}
}

// callbackDigest runs p's closed loop and returns the digest of its
// callback stream; fault, if set, damages the network before the first step.
func callbackDigest(t *testing.T, p Params, outstanding, cycles int, fault func(*Network)) string {
	t.Helper()
	h := sha256.New()
	var line []byte
	completed, results, deliveries, damaged, replies := 0, 0, 0, 0, 0
	record := func(ep int, kind byte, id uint64, ok bool, data []byte, done uint64) {
		line = strconv.AppendInt(line[:0], int64(ep), 10)
		line = append(line, ' ', kind, ' ')
		line = strconv.AppendUint(line, id, 10)
		line = strconv.AppendBool(append(line, ' '), ok)
		line = append(append(line, ' '), hex.EncodeToString(data)...)
		line = strconv.AppendUint(append(line, ' '), done, 10)
		h.Write(append(line, '\n'))
	}
	p.OnResult = func(r nic.Result) {
		completed++
		results++
		if len(r.Reply) > 0 {
			replies++
		}
		record(r.Msg.Src, 'R', r.Msg.ID, r.Delivered, r.Reply, r.Done)
	}
	p.OnDeliver = func(dest int, payload []byte, intact bool) {
		deliveries++
		if !intact {
			damaged++
		}
		record(dest, 'D', 0, intact, payload, 0)
	}
	n, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if fault != nil {
		fault(n)
	}
	rng := rand.New(rand.NewSource(int64(p.Seed) + 1000))
	e := p.Spec.Endpoints
	send := func() {
		src, dest := rng.Intn(e), rng.Intn(e)
		if dest == src {
			dest = (dest + 1) % e
		}
		payload := make([]byte, 1+rng.Intn(12))
		rng.Read(payload)
		n.Send(src, dest, payload)
	}
	for i := 0; i < outstanding; i++ {
		send()
	}
	for cycle := 0; cycle < cycles; cycle++ {
		n.Engine.Step()
		for ; completed > 0; completed-- {
			send()
		}
	}
	if results == 0 || deliveries == 0 {
		t.Fatalf("%d results and %d deliveries: the scenario exercises nothing", results, deliveries)
	}
	t.Logf("%d results (%d with a reply), %d deliveries (%d damaged)", results, replies, deliveries, damaged)
	return hex.EncodeToString(h.Sum(nil))
}
