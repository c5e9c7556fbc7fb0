package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// host fingerprints the machine and source a run measured. Runs on
// different hosts are not comparable; compare refuses to pass them.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`   // git HEAD when the tree is a repository
	Source     string `json:"source"`   // digest of the Go sources and module files
	LoadAvg    string `json:"load_avg"` // /proc/loadavg before the run
}

func fingerprint(root string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(root),
		Source:     sourceDigest(root),
		LoadAvg:    loadAvg(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// ticks is the machine-wide CPU time split from /proc/stat.
type ticks struct{ total, steal uint64 }

func (t ticks) sub(o ticks) ticks { return ticks{t.total - o.total, t.steal - o.steal} }

// cpuTicks reads the aggregate cpu line of /proc/stat (zero if absent).
func cpuTicks() ticks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t ticks
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || i >= 8 { // user..steal; guest time is already in user
			break
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// gitHead resolves HEAD by reading .git directly (no git process); an
// exported tree without .git reports "".
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// sourceDigest hashes every .go, go.mod and golden file outside hidden
// directories, so two runs of the same tree agree even without git.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.Contains(path, goldenDir)) {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// hostMismatch lists the fingerprint fields that make two runs
// incomparable (the source and load average may differ by design).
func hostMismatch(a, b host) []string {
	var out []string
	check := func(field string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %v vs %v", field, x, y))
		}
	}
	check("nproc", a.NProc, b.NProc)
	check("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	check("cpu_model", a.CPUModel, b.CPUModel)
	check("go_version", a.GoVersion, b.GoVersion)
	return out
}

// compare prints every metric two run records share, with the relative
// change. It fails when the records come from different hosts or
// workloads, so a cross-host comparison never passes silently.
func compare(basePath, newPath string) error {
	var a, b record
	for _, p := range []struct {
		path string
		rec  *record
	}{{basePath, &a}, {newPath, &b}} {
		data, err := os.ReadFile(p.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, p.rec); err != nil {
			return fmt.Errorf("%s: %w", p.path, err)
		}
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %9s\n", "metric", "base", "new", "change")
	for _, n := range names {
		x, y := a.Metrics[n].Value, b.Metrics[n].Value
		change := "-"
		if x != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y-x)/x)
		}
		fmt.Printf("%-34s %14.6g %14.6g %9s %s\n", n, x, y, change, a.Metrics[n].Unit)
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("records are of different workloads (%s vs %s)", a.Workload, b.Workload)
	}
	if diff := hostMismatch(a.Host, b.Host); len(diff) > 0 {
		return fmt.Errorf("HOST MISMATCH, the runs are not comparable: %s", strings.Join(diff, "; "))
	}
	if b.Failed > 0 {
		return fmt.Errorf("new run failed %d of %d operations", b.Failed, b.Attempted)
	}
	return nil
}
