package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"time"
)

// The benchmark runs on virtual machines whose vCPUs the hypervisor
// deschedules while other guests run. The kernel counts that time as
// "steal" in /proc/stat. The metrics are plain wall-clock figures; a run
// prints the steal share of its vCPU time as a note, read once at each end
// of the run, so a slow run on a busy host can be told from a slow program.

// userHZ is the kernel's /proc/stat tick rate, fixed at 100 on Linux.
const userHZ = 100

// readSteal returns the hypervisor steal time summed over the machine's
// vCPUs and the number of vCPUs /proc/stat lists, or zeros where the count
// is unavailable.
func readSteal() (steal time.Duration, cpus int) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(buf))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 0 || !bytes.HasPrefix(f[0], []byte("cpu")) {
			continue
		}
		if len(f[0]) > 3 {
			cpus++ // a per-vCPU line: cpu0, cpu1, ...
			continue
		}
		// cpu user nice system idle iowait irq softirq steal ...
		if len(f) >= 9 {
			if ticks, err := strconv.ParseInt(string(f[8]), 10, 64); err == nil {
				steal = time.Duration(ticks) * time.Second / userHZ
			}
		}
	}
	return steal, cpus
}

// stealShare is the share of the machine's vCPU time the hypervisor stole
// between two readSteal readings taken elapsed apart.
func stealShare(before, after time.Duration, cpus int, elapsed time.Duration) float64 {
	if cpus == 0 || elapsed <= 0 {
		return 0
	}
	return (after - before).Seconds() / elapsed.Seconds() / float64(cpus)
}
