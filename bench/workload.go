package main

import (
	"fmt"
	"time"
)

// defaultSeed is the frozen seed of a plain `go run . -workload <name>`;
// the driver and -agree pass their own.
const defaultSeed = 20080617

// Measurement plan of one run, as shares of -seconds so that -short scales
// everything together. A timed run is warm-up + one window of -seconds. A
// traced run fits an untraced reference window, a traced window and the
// layer replays into about the same wall time, which the driver's per-run
// budget is sized for.
const (
	warmupShare      = 0.15                  // of -seconds, before every window
	traceRefShare    = 0.4                   // traced run: untraced window behind the counters
	traceWindowShare = 0.35                  // traced run: window with taps installed
	setupRepeats     = 24                    // extra set-up/tear-down cycles behind setup_s
	setupSettle      = 40 * time.Millisecond // pause between those cycles
	segmentTimeout   = 2.0                   // seconds before a scripted peer gives a segment up
	captureBlocks    = 20000
	serverIDBase     = 1 << 32 // same split as live.StartCluster
)

// workload is one frozen set of inputs. The constants are the sized values
// of ISSUE 11; bench/README.md explains each.
type workload struct {
	name string
	why  string

	segmentSize int // s
	blockSize   int // bytes per source block
	transport   string
	wal         bool
	// procs > 0 pins GOMAXPROCS for the run. ingest-mem measures one core's
	// ceiling: with two Ps its loop is bound by cross-thread wake-ups of
	// half-idle cores, which on this kind of VM drift by +-12 % from run to
	// run, while with one P it is CPU-bound and repeats within a few
	// percent. (ingest-udp-wal is the other way round: on one P its
	// unpaced pulls starve the socket readers and over half the replies are
	// dropped after they were paid for, a collapse that comes and goes.)
	procs int

	// scripted > 0 selects the ingest shape: that many benchmark-owned
	// peers answer every pull with a fresh combination of their oldest
	// undelivered segment. Otherwise real live.Node peers run the protocol.
	scripted int

	peers, servers, degree int
	lambda, mu, gamma      float64
	bufferCap              int
	pullRate               float64
	policy                 string
	fleet                  bool
}

var workloads = []workload{
	{
		name:        "ingest-mem",
		why:         "one core's ingest ceiling of live.Server+collect+gfmat/rlnc: 4 scripted peers on chanmem, s=32, 1 KiB, unpaced pulls, GOMAXPROCS=1; transport, WAL, gossip, coupon waste near zero",
		segmentSize: 32, blockSize: 1024, transport: "chanmem", procs: 1,
		scripted: 4, servers: 1, pullRate: 1e6, policy: "blind",
	},
	{
		name:        "ingest-udp-wal",
		why:         "same scripted peers over loopback UDP with a WAL in default sync mode, default GOMAXPROCS: frame codec, syscalls, datagram loss and durable appends join the path ingest-mem leaves out",
		segmentSize: 32, blockSize: 1024, transport: "udp", wal: true,
		scripted: 4, servers: 1, pullRate: 1e6, policy: "blind",
	},
	{
		name:        "cluster-sat",
		why:         "the paper's mechanism at saturation: 16 live.Node peers (degree 3, s=8, 1 KiB, lambda=100, mu=400, gamma=0.25, B=2048) on chanmem, blind unpaced server; redundant pulls and node serve path dominate",
		segmentSize: 8, blockSize: 1024, transport: "chanmem",
		peers: 16, servers: 1, degree: 3,
		lambda: 100, mu: 400, gamma: 0.25, bufferCap: 2048,
		pullRate: 1e6, policy: "blind",
	},
	{
		name:        "fleet-tcp-paced",
		why:         "open loop at finite rates: 12 peers + 2-shard fleet (shared journal, rarest) on loopback TCP, s=4, 256 B, lambda=40, mu=200, gamma=0.5, B=512, 3000 pulls/s/shard; pacing, pullsched, exchange work",
		segmentSize: 4, blockSize: 256, transport: "tcp",
		peers: 12, servers: 2, degree: 3,
		lambda: 40, mu: 200, gamma: 0.5, bufferCap: 512,
		pullRate: 3000, policy: "rarest", fleet: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// segmentBytes is the source payload of one segment.
func (w *workload) segmentBytes() int { return w.segmentSize * w.blockSize }

// loadPeers is how many endpoints generate load (recorded in the output).
func (w *workload) loadPeers() int {
	if w.scripted > 0 {
		return w.scripted
	}
	return w.peers
}
