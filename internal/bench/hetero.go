package bench

import (
	"fmt"
	"time"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/serve"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// The hetero experiment exercises the heterogeneous device pool:
// one server whose workers model different GPUs (Tesla T4 and A100),
// each deployed model compiled per-(device, bucket) through one shared
// tuning log (keys are device-scoped, so both families coexist), and
// batches dispatched by modeled earliest finish time. Identical seeded
// Poisson request streams are replayed against a 2x T4 pool, a mixed
// 1x T4 + 1x A100 pool, and a 2x A100 pool; the mixed pool must beat
// the homogeneous T4 pool on modeled makespan, and the A100's share of
// the served batches must track its modeled speed advantage. Every
// number is computed on the simulated clocks, and every pool floods
// through the gated harness, so the experiment is deterministic.

// heteroModel builds the source CNN for the heterogeneous experiment:
// wider than the serving CNN so the batch-8 variant is compute-heavy
// enough for the A100's tensor-core advantage to show through the
// launch and memory floors (the serving CNN's convs are so small that
// both devices sit near the launch-bound floor).
func heteroModel() *relay.Graph {
	b := relay.NewBuilder()
	x := b.Input("image", tensor.FP16, 1, 16, 32, 32)
	c := b.Conv2D(x, b.Weight("w1", 64, 3, 3, 16), 1, 1)
	c = b.BiasAdd(c, b.Weight("b1", 64))
	c = b.Activation(c, cutlass.ActReLU)
	c = b.Conv2D(c, b.Weight("w2", 64, 3, 3, 64), 1, 1)
	c = b.BiasAdd(c, b.Weight("b2", 64))
	c = b.Activation(c, cutlass.ActReLU)
	c = b.MaxPool(c, 2, 2, 0)
	c = b.Conv2D(c, b.Weight("w3", 128, 3, 3, 64), 1, 1)
	c = b.BiasAdd(c, b.Weight("b3", 128))
	c = b.Activation(c, cutlass.ActReLU)
	g := b.GlobalAvgPool(c)
	d := b.Dense(g, b.Weight("fc", 128, 10))
	return b.Build(b.Softmax(d))
}

// heteroDeviceRow is one worker's share of a pool's served work.
type heteroDeviceRow struct {
	Worker           int
	Device           string
	Batches          int64
	BusyUs           float64
	UtilizationShare float64
	MakespanUs       float64
}

// heteroRow is one pool configuration's measured result.
type heteroRow struct {
	Pool       string
	Requests   int64
	Batches    int64
	Throughput float64
	MakespanUs float64
	P50Us      float64
	P99Us      float64
	Devices    []heteroDeviceRow
}

// heteroResult is the experiment's measured result: the table and the
// tests read it.
type heteroResult struct {
	Model    string
	Requests int
	Rows     []heteroRow
	// Modeled bucket-8 batch cost per device, and their ratio — the
	// speed advantage EFT dispatch can actually exploit on this
	// workload (capped below the peak-TFLOPS ratio by launch overhead
	// and memory-bound layers).
	T4Batch8Us        float64
	A100Batch8Us      float64
	ModeledSpeedRatio float64
	// PeakTFLOPSRatio is A100 peak tensor FP16 over T4's (the hardware
	// headroom the modeled ratio approaches as workloads grow).
	PeakTFLOPSRatio float64
	// The CI-enforced numbers: the mixed pool's makespan win over 2x T4
	// at identical offered load, and the A100's share of the mixed
	// pool's batches relative to the T4's.
	Makespan2T4Us    float64
	MakespanHeteroUs float64
	HeteroSpeedup    float64
	WorkShareRatio   float64
}

func (s *Suite) runHetero() heteroResult {
	requests := s.HeteroRequests
	requests -= requests % 8 // full largest buckets only
	if requests < 16 {
		requests = 16
	}
	log := tunelog.New()
	t4, a100 := gpu.T4(), gpu.A100()
	compile := s.tenantCompiler(heteroModel(), log)

	// Price the full bucket on both devices (this also primes the
	// shared tuning log, so every pool below compiles measurement-free).
	mod8T4, err := compile(t4, 8)
	if err != nil {
		panic(err)
	}
	mod8A100, err := compile(a100, 8)
	if err != nil {
		panic(err)
	}
	cost8T4, cost8A100 := mod8T4.Time(), mod8A100.Time()

	// Offered load: a seeded Poisson stream at ~4x one T4 worker's
	// bucket-8 service rate, so every pool is service-bound (the
	// makespan measures capacity, not the arrival span) while arrivals
	// still stagger batch starts.
	arrivals := PoissonArrivals(requests, 0.25*cost8T4/8, 17)
	// Bulk priority: batches dispatch as full largest buckets in FIFO
	// order.
	reqs := stream("widenet", seededInputs(requests, "image", 1, 16, 32, 32), arrivals, serve.PriorityBulk)

	art := heteroResult{
		Model:             "widenet-16x32",
		Requests:          requests,
		T4Batch8Us:        cost8T4 * 1e6,
		A100Batch8Us:      cost8A100 * 1e6,
		ModeledSpeedRatio: cost8T4 / cost8A100,
		PeakTFLOPSRatio:   a100.TensorFP16 / t4.TensorFP16,
	}
	pools := []struct {
		name    string
		devices []*gpu.Device
	}{
		{"2x T4", []*gpu.Device{t4, t4}},
		{"1x T4 + 1x A100", []*gpu.Device{t4, a100}},
		{"2x A100", []*gpu.Device{a100, a100}},
	}
	for _, p := range pools {
		st := flood(serve.ServerOptions{
			Devices:     p.devices,
			BatchWindow: 10 * time.Millisecond,
			CompileJobs: 2,
			Trace:       s.Trace,
			TraceLabel:  "hetero " + p.name,
		}, []floodTenant{{"widenet", compile, serve.DeployOptions{Buckets: []int{1, 2, 4, 8}}}}, reqs).Stats()
		row := heteroRow{
			Pool:       p.name,
			Requests:   st.Requests,
			Batches:    st.Batches,
			Throughput: st.Throughput(),
			MakespanUs: st.SimMakespan * 1e6,
			P50Us:      st.LatencyPercentile(50) * 1e6,
			P99Us:      st.LatencyPercentile(99) * 1e6,
		}
		for _, d := range st.Devices {
			row.Devices = append(row.Devices, heteroDeviceRow{
				Worker:           d.Worker,
				Device:           d.Device,
				Batches:          d.Batches,
				BusyUs:           d.BusySeconds * 1e6,
				UtilizationShare: d.UtilizationShare,
				MakespanUs:       d.SimMakespan * 1e6,
			})
		}
		art.Rows = append(art.Rows, row)
		switch p.name {
		case "2x T4":
			art.Makespan2T4Us = row.MakespanUs
		case "1x T4 + 1x A100":
			art.MakespanHeteroUs = row.MakespanUs
			var t4Batches, a100Batches int64
			for _, d := range st.Devices {
				switch d.Device {
				case t4.Name:
					t4Batches += d.Batches
				case a100.Name:
					a100Batches += d.Batches
				}
			}
			if t4Batches > 0 {
				art.WorkShareRatio = float64(a100Batches) / float64(t4Batches)
			}
		}
	}
	if art.MakespanHeteroUs > 0 {
		art.HeteroSpeedup = art.Makespan2T4Us / art.MakespanHeteroUs
	}
	return art
}

// Hetero reproduces the heterogeneous-pool experiment: the same seeded
// Poisson request stream replayed against homogeneous and mixed device
// pools, with per-device variant compilation through one shared tuning
// log and cost-aware earliest-finish-time dispatch.
func (s *Suite) Hetero() *Table {
	art := s.runHetero()
	t := &Table{
		ID:      "hetero",
		Title:   fmt.Sprintf("Heterogeneous pool: %d Poisson requests vs device mixes (simulated device time)", art.Requests),
		Columns: []string{"pool", "imgs/s", "makespan us", "p50 us", "p99 us", "per-device batches (busy us)"},
		Notes: []string{
			"identical seeded Poisson arrivals replayed against each pool; all batches are full bucket-8 dispatches",
			fmt.Sprintf("modeled bucket-8 cost: T4 %.1f us vs A100 %.1f us (%.2fx; peak-TFLOPS headroom %.1fx)",
				art.T4Batch8Us, art.A100Batch8Us, art.ModeledSpeedRatio, art.PeakTFLOPSRatio),
			fmt.Sprintf("mixed pool beats 2x T4 by %.2fx on modeled makespan (CI-enforced)", art.HeteroSpeedup),
			fmt.Sprintf("EFT dispatch gives the A100 %.1fx the T4's batches in the mixed pool — tracking its modeled speed advantage", art.WorkShareRatio),
		},
	}
	for _, r := range art.Rows {
		perDev := ""
		for i, d := range r.Devices {
			if i > 0 {
				perDev += ", "
			}
			perDev += fmt.Sprintf("%s: %d (%.0f)", d.Device, d.Batches, d.BusyUs)
		}
		t.AddRow(r.Pool, i0(r.Throughput), f1(r.MakespanUs), f1(r.P50Us), f1(r.P99Us), perDev)
	}
	return t
}
