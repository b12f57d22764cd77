package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// host is the header printed before every result, so each number
// carries the machine and the source it was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	CPUModel   string `json:"cpu_model"`
	JournalFS  string `json:"journal_fs"`
}

// journalDir holds the durable workload's journals, inside the
// checkout the benchmark runs from.
const journalDir = ".bench_build/journal"

func hostInfo() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev("."),
		CPUModel:   cpuModel(),
		JournalFS:  fsType(journalDir),
	}
}

// gitRev resolves HEAD without running git: a loose ref first, then
// packed-refs. A checkout exported without .git reports "none".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unresolved " + ref
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir (created if missing).
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%X", st.Type)
}
