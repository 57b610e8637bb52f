package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir, relative to the module root, receives the xfserve binary and
// every temporary state directory. It is the directory the driver points
// CARGO_TARGET_DIR at, so everything a run leaves behind sits in one
// git-ignored place inside the checkout.
const buildDir = ".bench_build"

// moduleRoot walks up from the working directory to the directory holding
// this module's go.mod, so the benchmark works from the repository root
// (go run ./benchmark) and from its own directory (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module predfilter\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("module predfilter not found above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/xfserve from the checkout's source.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "xfserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xfserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/xfserve: %w\n%s", err, out)
	}
	return bin, nil
}

// janitor owns everything that must not outlive the benchmark: child
// process groups and temporary directories. cleanup runs on every exit
// path — normal return, error, and SIGINT/SIGTERM.
type janitor struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
	dirs  map[string]struct{}
}

func newJanitor() *janitor {
	return &janitor{procs: map[*exec.Cmd]struct{}{}, dirs: map[string]struct{}{}}
}

func (j *janitor) tempDir(root, pattern string) (string, error) {
	base := filepath.Join(root, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, pattern)
	if err != nil {
		return "", err
	}
	j.mu.Lock()
	j.dirs[dir] = struct{}{}
	j.mu.Unlock()
	return dir, nil
}

func (j *janitor) removeDir(dir string) {
	j.mu.Lock()
	delete(j.dirs, dir)
	j.mu.Unlock()
	os.RemoveAll(dir)
}

// start launches a child in its own process group so that kill reaches
// anything it may have spawned.
func (j *janitor) start(bin string, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	j.procs[cmd] = struct{}{}
	return cmd, nil
}

// kill stops a child's process group and waits until it has ended.
func (j *janitor) kill(cmd *exec.Cmd) {
	j.mu.Lock()
	_, live := j.procs[cmd]
	delete(j.procs, cmd)
	j.mu.Unlock()
	if !live {
		return
	}
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // the group may already be gone
	_ = cmd.Wait()                                      // the exit status of a killed child says nothing
}

func (j *janitor) cleanup() {
	j.mu.Lock()
	var procs []*exec.Cmd
	for c := range j.procs {
		procs = append(procs, c)
	}
	var dirs []string
	for d := range j.dirs {
		dirs = append(dirs, d)
	}
	j.mu.Unlock()
	for _, c := range procs {
		j.kill(c)
	}
	for _, d := range dirs {
		j.removeDir(d)
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// system is one started deployment: the URL clients talk to and the
// processes behind it (for a cluster, procs[0] is the coordinator).
type system struct {
	url   string
	procs []*exec.Cmd
	dirs  []string
	j     *janitor
}

func (s *system) stop() {
	for _, c := range s.procs {
		s.j.kill(c)
	}
	for _, d := range s.dirs {
		s.j.removeDir(d)
	}
}

// startSystem starts the servers a workload needs and waits until the
// entry point answers /healthz. Servers run with default flags except
// -queue 16 (delivery queues reach steady state inside warm-up) and, for
// the churn workload, -state with -nosync (see README, "Scale").
func startSystem(ctx context.Context, j *janitor, root, bin string, sp spec) (*system, error) {
	sys := &system{j: j}
	launch := func(args ...string) (string, error) {
		addr, err := freeAddr()
		if err != nil {
			return "", err
		}
		cmd, err := j.start(bin, append([]string{"-addr", addr}, args...)...)
		if err != nil {
			return "", err
		}
		sys.procs = append(sys.procs, cmd)
		url := "http://" + addr
		return url, waitHealthy(ctx, url, cmd)
	}
	fail := func(err error) (*system, error) {
		sys.stop()
		return nil, err
	}
	var err error
	switch {
	case sp.shards > 0:
		var shardURLs []string
		for i := 0; i < sp.shards; i++ {
			u, err := launch("-queue", "16")
			if err != nil {
				return fail(err)
			}
			shardURLs = append(shardURLs, u)
		}
		if sys.url, err = launch("-cluster", strings.Join(shardURLs, ",")); err != nil {
			return fail(err)
		}
		// The coordinator goes first: it is what clients talk to.
		n := len(sys.procs)
		sys.procs = append([]*exec.Cmd{sys.procs[n-1]}, sys.procs[:n-1]...)
	case sp.churn:
		dir, err := j.tempDir(root, "state-")
		if err != nil {
			return fail(err)
		}
		sys.dirs = append(sys.dirs, dir)
		if sys.url, err = launch("-queue", "16", "-state", dir, "-nosync"); err != nil {
			return fail(err)
		}
	default:
		if sys.url, err = launch("-queue", "16"); err != nil {
			return fail(err)
		}
	}
	return sys, nil
}

func waitHealthy(ctx context.Context, url string, cmd *exec.Cmd) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := syscall.Kill(cmd.Process.Pid, 0); err != nil {
			return fmt.Errorf("server %s exited before becoming healthy", url)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("server %s not healthy after 20s", url)
}

// cpuSeconds returns the CPU time a process has used so far: the sum of
// its threads' run times from /proc/<pid>/task/*/schedstat, which the
// scheduler keeps in nanoseconds. utime+stime of /proc/<pid>/stat count the
// same time in 10 ms ticks, too coarse for one document cycle of the light
// workloads (about 15 ticks). xfserve's threads live as long as it does, so
// no run time is lost with an exited thread.
func cpuSeconds(pid int) (float64, error) {
	tasks := "/proc/" + strconv.Itoa(pid) + "/task"
	entries, err := os.ReadDir(tasks)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(tasks, e.Name(), "schedstat"))
		if err != nil {
			if os.IsNotExist(err) { // the thread ended between the two reads
				continue
			}
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("unexpected %s/%s/schedstat", tasks, e.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("unexpected %s/%s/schedstat: %w", tasks, e.Name(), err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// peakRSSMB returns VmHWM of a process in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
