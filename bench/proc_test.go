package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' inside it.
	stat := "4242 (my (odd) name) S 1 4242 4242 0 -1 4194560 1530 0 0 0 137 42 0 0 20 0 9 0 123456 1234567 890 18446744073709551615\n"
	ticks, err := parseStatCPU([]byte(stat))
	if err != nil || ticks != 137+42 {
		t.Fatalf("parseStatCPU = %d, %v; want 179", ticks, err)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("a truncated stat line parsed")
	}
}

func TestStatusFields(t *testing.T) {
	status := []byte("Name:\tchameleon-serve\nVmPeak:\t 1234 kB\nVmHWM:\t   15872 kB\nCpus_allowed_list:\t0-1,4\n")
	if kb, err := statusKB(status, "VmHWM"); err != nil || kb != 15872 {
		t.Fatalf("VmHWM = %d, %v; want 15872", kb, err)
	}
	if _, err := statusKB(status, "VmRSS"); err == nil {
		t.Fatal("a missing field parsed")
	}
	list, err := statusField(status, "Cpus_allowed_list")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cpuListLen(list); err != nil || n != 3 {
		t.Fatalf("cpuListLen(%q) = %d, %v; want 3", list, n, err)
	}
	for _, bad := range []string{"", "3-1", "a"} {
		if _, err := cpuListLen(bad); err == nil {
			t.Errorf("cpuListLen(%q) reported no error", bad)
		}
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	pid := os.Getpid()
	if _, err := cpuMs(pid); err != nil {
		t.Fatal(err)
	}
	status, err := procStatus(pid)
	if err != nil {
		t.Fatal(err)
	}
	if kb, err := statusKB(status, "VmHWM"); err != nil || kb == 0 {
		t.Fatalf("VmHWM of this process = %d, %v", kb, err)
	}
	if n, err := serverProcs(pid); err != nil || n < 1 {
		t.Fatalf("serverProcs(self) = %d, %v", n, err)
	}
}
