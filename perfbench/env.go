package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bytecode"
)

// Cache-state isolation.
//
// The native tier caches compiled plugins under $TMPDIR/mi-native and builds
// them with the go command, which caches under $GOCACHE. Every run gets a
// private directory under .bench_build/ holding its own TMPDIR and its own
// GOCACHE, removed when the run ends, so no run reads the shared system temp
// directory or leaves state for the next. Two stores persist between runs:
//
//	plugbase/   a GOCACHE warmed by building one dummy plugin: the
//	            toolchain's plugin-mode runtime is compiled, no generated
//	            program is. A run's GOCACHE is a hard-linked copy of it, so
//	            a cold op pays for its own program and never for the runtime
//	            (10 s on the first plugin build otherwise), and never finds a
//	            program an earlier run compiled.
//	warmstore/  a TMPDIR whose mi-native/ holds the plugin of every
//	            campaign-warm cell; a warm run hard-links them in.
//
// Both are filled by the prime step, once per benchmark binary, in a child
// process so that the measuring process starts with no plugin loaded. After
// a code change every plugin hash changes; priming then rebuilds the store
// before any timing starts, so that first run moves no median.

type layout struct{ root, build string }

func newLayout(root string) layout {
	return layout{root: root, build: filepath.Join(root, ".bench_build")}
}

func (l layout) base() string   { return filepath.Join(l.build, "plugbase") }
func (l layout) store() string  { return filepath.Join(l.build, "warmstore") }
func (l layout) marker() string { return filepath.Join(l.build, "primed") }
func (l layout) traces() string { return filepath.Join(l.build, "traces") }

// private is one run's isolated cache state.
type private struct{ dir string }

func (p private) tmp() string     { return filepath.Join(p.dir, "tmp") }
func (p private) gocache() string { return filepath.Join(p.dir, "gocache") }
func (p private) plugins() string { return filepath.Join(p.tmp(), "mi-native") }

// newPrivate creates a private TMPDIR with an empty plugin cache, or one
// hard-linked from the warm store, and a private GOCACHE: a copy of the base
// where the run is meant to build plugins, else empty, so that a build
// nobody meant to happen is slow and visible and pollutes nothing.
func (l layout) newPrivate(name string, warmPlugins, buildCache bool) (private, error) {
	p := private{dir: filepath.Join(l.build, "run-"+name)}
	if err := os.RemoveAll(p.dir); err != nil {
		return p, err
	}
	for _, dir := range []string{p.plugins(), p.gocache()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return p, err
		}
	}
	if buildCache {
		if _, err := linkTree(l.base(), p.gocache()); err != nil {
			return p, fmt.Errorf("copying the base build cache: %w", err)
		}
	}
	if warmPlugins {
		n, err := linkTree(filepath.Join(l.store(), "mi-native"), p.plugins())
		if err != nil {
			return p, fmt.Errorf("linking the warm plugin store: %w", err)
		}
		if n == 0 {
			return p, fmt.Errorf("the warm plugin store is empty")
		}
	}
	return p, nil
}

// use points this process, and every go build the native tier starts, at
// the private TMPDIR and GOCACHE.
func (p private) use() {
	os.Setenv("TMPDIR", p.tmp())
	os.Setenv("GOCACHE", p.gocache())
}

func (p private) remove() error { return os.RemoveAll(p.dir) }

// linkTree hard-links every regular file under src into dst, creating the
// directories; it returns the number of files linked.
func linkTree(src, dst string) (int, error) {
	n := 0
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		n++
		return os.Link(path, target)
	})
	return n, err
}

// removeStale deletes private directories left by runs that were killed.
func (l layout) removeStale() error {
	old, err := filepath.Glob(filepath.Join(l.build, "run-*"))
	if err != nil {
		return err
	}
	for _, dir := range old {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// ensurePrimed runs the prime step in a child process unless the stores were
// already primed by this exact binary. It returns the time priming took.
func ensurePrimed(l layout) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	sum, err := fileSum(exe)
	if err != nil {
		return 0, err
	}
	if b, err := os.ReadFile(l.marker()); err == nil && string(b) == sum {
		return 0, nil
	}
	start := time.Now()
	cmd := exec.Command(exe, "-root", l.root, "-prime")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("prime step: %w", err)
	}
	return time.Since(start), os.WriteFile(l.marker(), []byte(sum), 0o644)
}

func fileSum(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prime fills the persistent stores (the body of the child process).
func prime(l layout) error {
	if err := os.MkdirAll(l.build, 0o755); err != nil {
		return err
	}
	if err := warmBase(l); err != nil {
		return fmt.Errorf("warming the base build cache: %w", err)
	}
	p, err := l.newPrivate("prime", false, true)
	if err != nil {
		return err
	}
	defer p.remove()
	p.use()
	// Plugins land in the store, not in the private TMPDIR.
	os.Setenv("TMPDIR", l.store())
	if err := os.MkdirAll(filepath.Join(l.store(), "mi-native"), 0o755); err != nil {
		return err
	}
	start := time.Now()
	pass := runWarmPass(warmPass(0, 0), nil)
	if len(pass.errs) > 0 {
		return fmt.Errorf("filling the warm plugin store: %s", strings.Join(pass.errs, "; "))
	}
	if fb := fallbacks(bytecode.NativeStats()); fb > 0 {
		return fmt.Errorf("filling the warm plugin store: %d programs fell back to the interpreter", fb)
	}
	fmt.Fprintf(os.Stderr, "perfbench: warm plugin store filled in %.1fs\n", time.Since(start).Seconds())
	return nil
}

// dummyPlugin imports what every generated plugin imports, so building it
// compiles the same plugin-mode dependencies.
const dummyPlugin = `package main

import (
	"encoding/binary"
	"math"
)

var Fns = []func([]byte) uint64{func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) ^ math.Float64bits(1) }}
`

// warmBase builds the dummy plugin into a fresh base GOCACHE with the
// environment the native tier's builds use, unless that was done before.
func warmBase(l layout) error {
	done := filepath.Join(l.build, "plugbase.ok")
	if _, err := os.Stat(done); err == nil {
		return nil
	}
	work := filepath.Join(l.build, "plugbase-src")
	for _, dir := range []string{l.base(), work} {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if err := os.WriteFile(filepath.Join(work, "go.mod"), []byte("module perfbenchwarmup\n\ngo 1.24\n"), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(work, "plug.go"), []byte(dummyPlugin), 0o644); err != nil {
		return err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-buildmode=plugin", "-o", "plug.so", ".")
	cmd.Dir = work
	cmd.Env = append(os.Environ(), "GOCACHE="+l.base(),
		"CGO_ENABLED=1", "GOFLAGS=", "GOWORK=off", "GO111MODULE=on", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%v: %s", err, out)
	}
	fmt.Fprintf(os.Stderr, "perfbench: base build cache warmed in %.1fs\n", time.Since(start).Seconds())
	return os.WriteFile(done, nil, 0o644)
}
