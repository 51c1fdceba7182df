package bench

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/stats"
)

// Paper-reported values for Fig. 8 (§V).
var (
	// paperFig8aImgPerWatt: VPU at 1 stick, CPU/GPU at batch 8.
	paperFig8aImgPerWatt = map[string]float64{"cpu": 0.55, "gpu": 0.93, "vpu1": 3.97}
	// paperFig8bIPS16 are the batch-16 throughputs (VPU projected).
	paperFig8bIPS16 = map[string]float64{"cpu": 44.5, "gpu": 79.9, "vpu": 153.0}
)

// Fig8aBatches are the batch sizes of Figure 8a.
var Fig8aBatches = []int{1, 2, 4, 8}

// Fig8a regenerates Figure 8a: throughput per Watt (Eq. 1) per batch
// size. The TDP denominators follow §V: 80 W for CPU and GPU, 2.5 W
// per NCS stick (aggregated across active sticks).
func (h *Harness) Fig8a() (*Table, error) {
	t := &Table{
		ID:    "fig8a",
		Title: "Throughput per Watt (images/W, Eq. 1) vs batch size",
		Columns: []string{
			"batch", "CPU img/W", "GPU img/W", "VPU(multi) img/W",
		},
		Notes: []string{
			"TDP: CPU 80 W, GPU 80 W, NCS 2.5 W per stick (chip alone: 0.9 W)",
			"paper: VPU 3.97 img/W at one stick; CPU 0.55 and GPU 0.93 at batch 8",
		},
	}
	images := h.cfg.ImagesPerSubset
	var vpu1, cpu8, gpu8 float64
	for _, b := range Fig8aBatches {
		run := fmt.Sprintf("fig8a/b%d", b)
		cpu, err := h.runPerf("cpu", b, images, run)
		if err != nil {
			return nil, err
		}
		gpu, err := h.runPerf("gpu", b, images, run)
		if err != nil {
			return nil, err
		}
		vpu, err := h.runPerf("vpu", b, images, run)
		if err != nil {
			return nil, err
		}
		cpuW := power.ImagesPerWatt(cpu.ImagesPerSec, power.CPUTDPWatts)
		gpuW := power.ImagesPerWatt(gpu.ImagesPerSec, power.GPUTDPWatts)
		vpuW := power.ImagesPerWatt(vpu.ImagesPerSec, power.MultiVPUTDP(b))
		if b == 1 {
			vpu1 = vpuW
		}
		if b == 8 {
			cpu8, gpu8 = cpuW, gpuW
		}
		t.AddRow(
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%.2f", cpuW),
			fmt.Sprintf("%.2f", gpuW),
			fmt.Sprintf("%.2f", vpuW),
		)
	}
	t.AddRow("paper pts",
		fmtRatio(cpu8, paperFig8aImgPerWatt["cpu"], "%.2f"),
		fmtRatio(gpu8, paperFig8aImgPerWatt["gpu"], "%.2f"),
		fmtRatio(vpu1, paperFig8aImgPerWatt["vpu1"], "%.2f")+" @1",
	)
	return t, nil
}

// Fig8bBatches are the batch sizes of Figure 8b (1–16; the paper
// measures the VPU to its 8 physical sticks and projects beyond).
var Fig8bBatches = []int{1, 2, 4, 8, 16}

// Fig8b regenerates Figure 8b: projected inference performance per
// batch size. CPU and GPU are measured through batch 16. The VPU is
// measured through the 8-stick testbed; beyond that the paper
// projects assuming the observed scaling continues — reproduced here
// with a least-squares line through the measured points — and, because
// this testbed is simulated, the projection is additionally checked
// against an actual 16-stick simulation.
func (h *Harness) Fig8b() (*Table, error) {
	t := &Table{
		ID:    "fig8b",
		Title: "Projected inference performance vs batch size (img/s)",
		Columns: []string{
			"batch", "CPU img/s", "GPU img/s", "VPU img/s", "VPU mode",
		},
		Notes: []string{
			"paper at 16: CPU 44.5, GPU 79.9, VPU 153.0 (projected) img/s",
			"VPU mode: measured = simulated testbed sticks; projected = linear fit through measured points",
		},
	}
	images := h.cfg.ImagesPerSubset

	var xs, ys []float64
	var cpu16, gpu16, vpuProj16, vpuSim16 float64
	for _, b := range Fig8bBatches {
		run := fmt.Sprintf("fig8b/b%d", b)
		cpu, err := h.runPerf("cpu", b, images, run)
		if err != nil {
			return nil, err
		}
		gpu, err := h.runPerf("gpu", b, images, run)
		if err != nil {
			return nil, err
		}
		if b == 16 {
			cpu16, gpu16 = cpu.ImagesPerSec, gpu.ImagesPerSec
		}

		var vpuIPS float64
		mode := "measured"
		if b <= 8 {
			vpu, err := h.runPerf("vpu", b, images, run)
			if err != nil {
				return nil, err
			}
			vpuIPS = vpu.ImagesPerSec
			xs = append(xs, float64(b))
			ys = append(ys, vpuIPS)
		} else {
			line := stats.FitLine(xs, ys)
			vpuIPS = line.At(float64(b))
			vpuProj16 = vpuIPS
			mode = "projected"
			// Cross-check: simulate the 16-stick testbed outright.
			sim16, err := h.runPerf("vpu", b, images, run+"/sim-check")
			if err != nil {
				return nil, err
			}
			vpuSim16 = sim16.ImagesPerSec
		}
		t.AddRow(
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%.1f", cpu.ImagesPerSec),
			fmt.Sprintf("%.1f", gpu.ImagesPerSec),
			fmt.Sprintf("%.1f", vpuIPS),
			mode,
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("at 16: CPU %.1f (paper 44.5), GPU %.1f (paper 79.9), VPU projected %.1f / simulated %.1f (paper 153.0)",
			cpu16, gpu16, vpuProj16, vpuSim16),
		fmt.Sprintf("VPU@16 vs CPU@16: %.1fx (paper 3.4x); vs GPU@16: %.1fx (paper 1.9x)",
			round2(vpuProj16/cpu16), round2(vpuProj16/gpu16)),
	)
	return t, nil
}
