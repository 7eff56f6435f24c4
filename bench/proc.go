package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// Linux reports these fields in 1/100 s on every architecture it supports.
const clockTicks = 100

// cpuMs reads a process's user+system CPU time in milliseconds.
func cpuMs(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(b)
	if err != nil {
		return 0, err
	}
	return float64(ticks) * 1000 / clockTicks, nil
}

// parseStatCPU returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) is parenthesised and may hold spaces, so the
// fields are counted from the last ')'.
func parseStatCPU(b []byte) (uint64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are fields 14
	// and 15.
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// procStatus reads /proc/<pid>/status.
func procStatus(pid int) ([]byte, error) {
	return os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
}

// statusField returns the value of one "Key:\tvalue" line of
// /proc/<pid>/status, with a trailing " kB" unit removed.
func statusField(status []byte, key string) (string, error) {
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && k == key {
			return strings.TrimSuffix(strings.TrimSpace(v), " kB"), nil
		}
	}
	return "", fmt.Errorf("proc status: no %s line", key)
}

// statusKB reads a kB-valued field such as VmHWM.
func statusKB(status []byte, key string) (uint64, error) {
	v, err := statusField(status, key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc status %s: %w", key, err)
	}
	return n, nil
}

// cpuListLen counts the CPUs in a list such as "0-3,8,10-11" (the format of
// Cpus_allowed_list). Go sizes GOMAXPROCS from this set when the GOMAXPROCS
// environment variable is unset.
func cpuListLen(list string) (int, error) {
	n := 0
	for _, part := range strings.Split(strings.TrimSpace(list), ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0, fmt.Errorf("cpu list %q: %w", list, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return 0, fmt.Errorf("cpu list %q: %w", list, err)
			}
		}
		if b < a {
			return 0, fmt.Errorf("cpu list %q: descending range", list)
		}
		n += b - a + 1
	}
	return n, nil
}
