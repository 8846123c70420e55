package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // getrusage(RUSAGE_SELF) cannot fail on Linux; a zero delta would show
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField returns the value of a "Key:\tvalue" line of a /proc file, or "".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of this
// process at its current size (clear_refs(5), Linux 4.0+). Where that is not
// allowed the mark simply keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// envBlock describes the machine a run's numbers belong to. Numbers compare
// only between runs whose env blocks agree on GOMAXPROCS and CPU model.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() envBlock {
	return envBlock{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
}
