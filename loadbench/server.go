package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one cdml-serve child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	dir  string
	done chan error // receives cmd.Wait's result once
	// setup is the time from exec until /v1/healthz first answered 200,
	// the server's warm-up included.
	setup time.Duration
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// startServer execs cdml-serve for w with a fresh state directory under
// work and waits until it is healthy. The server's output is discarded:
// its request log is part of the work it does, not something the
// benchmark reads.
func startServer(bin, work string, w *workload) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "server-")
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, dir: dir, done: make(chan error, 1)}
	s.cmd = exec.Command("nice", append([]string{"-n", fmt.Sprint(serverNice), bin}, serverArgs(w, addr, dir)...)...)
	// The server must not outlive the benchmark, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cdml-serve: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	c := &conn{addr: addr}
	defer c.close()
	for {
		resp, err := c.do("GET", "/v1/healthz", "", nil, time.Second)
		if err == nil && resp.status == 200 {
			s.setup = time.Since(start)
			return s, nil
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("cdml-serve exited during start-up: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, errors.New("cdml-serve not healthy after 60s")
		}
	}
}

// serverNice is the scheduling niceness cdml-serve runs at (through
// nice(1)), above the generator's 0: when both want a CPU, the generator's
// own work (reading a response the moment it arrives, sending the next
// request on time) goes first, so harness delays are not counted as the
// server's latency. The generator is idle most of the time, so the server
// still gets every CPU cycle the generator does not use.
const serverNice = 5

// stop sends SIGTERM (graceful drain) and waits for the process to exit,
// killing it if the drain takes too long.
func (s *server) stop() error {
	if s.cmd.Process == nil {
		return nil
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		err := <-s.done
		s.done <- err
		return fmt.Errorf("cdml-serve did not drain within 30s: %v", err)
	}
}

// peakRSSMiB reads the server's VmHWM (peak resident set) from /proc.
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// provenance describes where and on what a result was measured.
func provenance(root, work string, seed int64) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"fs_type":    fsType(work),
		"seed":       seed,
		"commit":     commit(root),
		"source":     sourceDigest(root),
	}
}

// cpuSteal returns the machine's cumulative steal and total CPU ticks
// from /proc/stat (zeros when unavailable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir (where the WAL and checkpoint
// directories live) from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x2fc12fc1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
		0xf15f: "ecryptfs", 0x5346544e: "ntfs", 0x4d44: "vfat",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit identifies the source tree the server was built from: the git
// HEAD when the checkout is a repository, otherwise "unknown".
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest identifies the sources the server was built from when the
// checkout is not a git repository: the SHA-256 over the path and content
// of every .go file and go.mod under root, in lexical order, skipping
// hidden directories (.bench_build among them).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
