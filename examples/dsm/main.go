// Distributed shared memory over METRO: the paper's motivating use case
// for connection reversal (Section 5.1).
//
// A low-latency distributed-memory multiprocessor performs a remote read
// by opening a circuit to the owning node, sending the address, and
// TURNing the connection; the reply streams back along the already-open
// path with no second connection setup. When the requested line misses the
// remote cache, the owner holds the reversed connection open with
// DATA-IDLE words while the memory access completes — exactly the
// variable-delay reply mechanism this example demonstrates.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"metro"
)

// memory is each node's local store: 64 lines of 16 bytes.
type memory struct {
	lines  [64][16]byte
	cached [64]bool // which lines the owner has in cache (fast replies)
}

const (
	cacheHitDelay = 2  // cycles to fetch a cached line
	memoryDelay   = 25 // cycles for a main-memory access
	lineSize      = 16
	requestMagic  = 0x52 // 'R'
)

func main() {
	spec := metro.Figure3Topology() // 64 nodes, radix-4, 3 stages

	// Per-node memory, seeded with recognizable contents.
	mems := make([]*memory, spec.Endpoints)
	for n := range mems {
		mems[n] = &memory{}
		for l := 0; l < 64; l++ {
			binary.LittleEndian.PutUint32(mems[n].lines[l][:4], uint32(n)<<16|uint32(l))
			mems[n].cached[l] = l%4 == 0 // every fourth line is cache-hot
		}
	}

	net, err := metro.BuildNetwork(metro.NetworkParams{
		Spec:        spec,
		Width:       8,
		DataPipe:    1,
		LinkDelay:   1,
		FastReclaim: true,
		Seed:        7,
		// The responder implements the read side of the DSM protocol.
		Responder: func(dest int, req []byte) []byte {
			if len(req) != 2 || req[0] != requestMagic {
				return []byte{0xFF} // protocol error
			}
			line := int(req[1]) % 64
			return mems[dest].lines[line][:]
		},
		// Reply readiness depends on where the line lives.
		ResponderDelay: func(dest int, req []byte) int {
			if len(req) != 2 {
				return 0
			}
			if mems[dest].cached[int(req[1])%64] {
				return cacheHitDelay
			}
			return memoryDelay
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	read := func(node, owner, line int) (data []byte, cycles uint64) {
		res, ok := metro.SendOne(net, node, owner, []byte{requestMagic, byte(line)}, 10000)
		if !ok || !res.Delivered {
			log.Fatalf("read %d->%d line %d failed: %+v", node, owner, line, res)
		}
		return res.Reply, res.Done - res.Injected
	}

	fmt.Println("remote reads over reversed circuit-switched connections:")
	// A cache-hot line and a cache-cold line from the same owner: the
	// latency difference is the memory access, absorbed by DATA-IDLE fill
	// on the open connection.
	hot, hotCycles := read(3, 42, 4)
	cold, coldCycles := read(3, 42, 5)
	fmt.Printf("  node 3 reads node 42 line 4 (cached): %d cycles, line id %#x\n",
		hotCycles, binary.LittleEndian.Uint32(hot[:4]))
	fmt.Printf("  node 3 reads node 42 line 5 (memory): %d cycles, line id %#x\n",
		coldCycles, binary.LittleEndian.Uint32(cold[:4]))
	fmt.Printf("  memory penalty observed: %d cycles (configured %d vs %d)\n",
		coldCycles-hotCycles, memoryDelay, cacheHitDelay)

	// A burst of reads from many nodes to many owners.
	fmt.Println("scatter of 32 remote reads:")
	var total uint64
	for i := 0; i < 32; i++ {
		node := (i * 7) % 64
		owner := (i*13 + 5) % 64
		if owner == node {
			owner = (owner + 1) % 64
		}
		data, cycles := read(node, owner, i%64)
		want := uint32(owner)<<16 | uint32(i%64)
		if binary.LittleEndian.Uint32(data[:4]) != want {
			log.Fatalf("read returned wrong line: %#x != %#x", data[:4], want)
		}
		total += cycles
	}
	fmt.Printf("  all 32 reads correct; mean read latency %.1f cycles\n", float64(total)/32)
}
