package train

import (
	"fmt"
	"testing"
	"time"

	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// TestCollectiveStrategiesBitIdentical is the mesh collective's
// conformance matrix: the fused all-reduce over every fabric (instant
// in-process, reordering simulated links, real TCP sockets + codec) × P ∈
// {2, 3, 4} leaves the embedding servers bit-identical to the no-cache
// baseline of the same P and reports its exact losses. P=3 has rank 0 fold
// an odd number of peer frames.
func TestCollectiveStrategiesBitIdentical(t *testing.T) {
	for _, meshName := range []string{"inproc", "sim", "tcp"} {
		t.Run("fused_"+meshName, func(t *testing.T) {
			for _, P := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("P%d", P), func(t *testing.T) {
					cfg := tinyConfig()
					cfg.NumTrainers = P
					cfg.NumBatches = 12
					srvBase := newServer(cfg.Spec, 3)
					base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
					if err != nil {
						t.Fatalf("baseline: %v", err)
					}
					srv := newServer(cfg.Spec, 3)
					var mesh transport.Mesh
					switch meshName {
					case "inproc":
						mesh = transport.NewInprocMesh(P)
					case "sim":
						mesh = transport.NewSimMesh(P, 200*time.Microsecond, 20e6)
					case "tcp":
						lb, err := transport.NewLoopbackTCPMesh(P)
						if err != nil {
							t.Fatal(err)
						}
						defer lb.Shutdown()
						mesh = lb
					}
					results := runWorkers(t, cfg, newStores(srv, P), mesh)

					if d := embed.Diff(srvBase, srv); len(d) != 0 {
						t.Fatalf("P=%d over %s diverged at %d ids (first: %v)", P, meshName, len(d), d[0])
					}
					for p, res := range results {
						if res.FirstLoss != base.FirstLoss || res.LastLoss != base.LastLoss {
							t.Fatalf("worker %d losses diverged: %v/%v vs baseline %v/%v",
								p, res.FirstLoss, res.LastLoss, base.FirstLoss, base.LastLoss)
						}
						if res.MeshClasses.CollMsgs == 0 {
							t.Fatalf("worker %d sent no collective frames", p)
						}
					}
				})
			}
		})
	}
}

// TestFusedCollectiveFrameReduction pins the collective's frame count from
// the counters, not the math: per iteration every peer sends rank 0 one
// frame and rank 0 sends every peer one back — 2(P−1) frames across the
// whole mesh, however many dense parameters the model has.
func TestFusedCollectiveFrameReduction(t *testing.T) {
	for _, P := range []int{2, 3, 4} {
		cfg := tinyConfig()
		cfg.NumTrainers = P
		cfg.NumBatches = 10
		srv := newServer(cfg.Spec, 3)
		results := runWorkers(t, cfg, newStores(srv, P), transport.NewInprocMesh(P))
		var total int64
		for _, res := range results {
			total += res.MeshClasses.CollMsgs
		}
		if want := 2 * int64(P-1) * int64(cfg.NumBatches); total != want {
			t.Errorf("P=%d sent %d collective frames, want 2(P-1)·iters = %d", P, total, want)
		}
	}
}

// TestLRPPSyncCompressRuns: the quantized replica path (-sync-compress) is
// lossy by design, so it cannot be held to bit-identity — but it must run
// every fabric-facing stage, quantize at the sender (all fabrics carry
// identical values), and land close to the lossless run. The loss curve
// staying within f16-noise of baseline is the smoke bar.
func TestLRPPSyncCompressRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumTrainers = 2
	cfg.NumBatches = 20
	cfg.SyncCompress = true

	srv := newServer(cfg.Spec, 3)
	res, err := RunLRPP(cfg, newStores(srv, 2), nil)
	if err != nil {
		t.Fatalf("lrpp with sync-compress: %v", err)
	}

	exact := cfg
	exact.SyncCompress = false
	srvExact := newServer(cfg.Spec, 3)
	resExact, err := RunLRPP(exact, newStores(srvExact, 2), nil)
	if err != nil {
		t.Fatalf("lrpp lossless: %v", err)
	}
	if res.ReplicaRows == 0 {
		t.Fatal("no replicas pushed; the quantized path was never exercised")
	}
	if d := res.LastLoss - resExact.LastLoss; d > 0.05 || d < -0.05 {
		t.Fatalf("quantized last loss %v drifted from lossless %v", res.LastLoss, resExact.LastLoss)
	}
	// And the per-class accounting halves replica bytes: 2 bytes/element
	// instead of 4, same frame count.
	if res.MeshClasses.ReplicaMsgs != resExact.MeshClasses.ReplicaMsgs {
		t.Fatalf("replica frame count changed under quantization: %d vs %d",
			res.MeshClasses.ReplicaMsgs, resExact.MeshClasses.ReplicaMsgs)
	}
	if res.MeshClasses.ReplicaBytes >= resExact.MeshClasses.ReplicaBytes {
		t.Fatalf("quantized replica bytes %d not below lossless %d",
			res.MeshClasses.ReplicaBytes, resExact.MeshClasses.ReplicaBytes)
	}
}

// TestCalibrateAndAutoLookahead covers the -auto-lookahead machinery: the
// calibration returns a sane positive compute time, and the window policy
// respects both the latency floor (rtt/iter + slack) and the cache-budget
// ceiling.
func TestCalibrateAndAutoLookahead(t *testing.T) {
	cfg := tinyConfig()
	iter, err := CalibrateIterTime(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if iter <= 0 || iter > 5*time.Second {
		t.Fatalf("calibrated iteration time %v not plausible", iter)
	}

	// A link 10 iterations deep needs ℒ ≈ 12; a huge budget must not cap it.
	l, err := AutoLookahead(cfg, time.Millisecond, 10*time.Millisecond, 1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if l != 12 {
		t.Fatalf("auto ℒ = %d, want rtt/iter+2 = 12", l)
	}
	// A tiny cache budget caps the window regardless of latency.
	lTight, err := AutoLookahead(cfg, time.Millisecond, 100*time.Millisecond, 40, 64)
	if err != nil {
		t.Fatal(err)
	}
	if lTight >= 102 || lTight < 1 {
		t.Fatalf("budget-capped ℒ = %d, want small positive", lTight)
	}
	if lTight > 8 {
		t.Fatalf("40-row budget fits ℒ = %d windows of ~16-example batches: cap not applied", lTight)
	}
	// Zero-cost compute degrades to the floor, never to zero.
	lFloor, err := AutoLookahead(cfg, 0, time.Millisecond, 1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if lFloor != 2 {
		t.Fatalf("floor ℒ = %d, want 2", lFloor)
	}
	if _, err := AutoLookahead(cfg, time.Millisecond, time.Millisecond, 0, 64); err == nil {
		t.Fatal("zero cache budget accepted")
	}
	bad := cfg
	bad.NumTrainers = 0
	if _, err := AutoLookahead(bad, time.Millisecond, time.Millisecond, 100, 64); err == nil {
		t.Fatal("invalid config accepted")
	}
}
