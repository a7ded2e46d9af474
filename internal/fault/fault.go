// Package fault is a deterministic fault-point registry for injecting the
// failures the paper's design exists to survive: hung leaves, dropped
// connections, corrupt shared memory segments, crashes mid-copy (§1, §4.2,
// §4.5). Production code declares named sites at the exact places failures
// happen in the wild — shared memory map/copy/commit, disk backup reads,
// wire transport dial/read/write, leaf query execution — and tests (or a
// chaos run via `scubad -fault`) arm actions against those sites.
//
// The registry is zero-cost when disabled: every site check is a single
// atomic load that fails fast while nothing is armed, so the hooks stay in
// the hot paths permanently instead of living behind build tags or
// test-only function pointers.
//
// Actions are deterministic by construction — a site fires in call order,
// gated by After (skip the first N hits) and Count (fire at most N times),
// and corruption flips fixed bytes — so the fault-matrix regression suite
// can assert exact recovery behavior run after run.
package fault

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Action is what an armed fault point does when its site is hit.
type Action uint8

// Actions.
const (
	// ActError makes the site return Point.Err (ErrInjected by default).
	ActError Action = iota + 1
	// ActDelay makes the site sleep for Point.Delay before continuing —
	// the SIGSTOP'd-leaf / network-brownout simulation.
	ActDelay
	// ActCorrupt flips bytes in the site's buffer (only sites that pass
	// data through CorruptBytes honor it; Inject treats it as a no-op).
	ActCorrupt
	// ActCrash hard-exits the process at the site — no deferred cleanup,
	// no recover, exactly like a kill -9 at the worst moment.
	ActCrash
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActDelay:
		return "delay"
	case ActCorrupt:
		return "corrupt"
	case ActCrash:
		return "crash"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// ErrInjected is the default error returned by sites armed with ActError.
var ErrInjected = errors.New("fault: injected failure")

// Fault sites. Every site marks a place the paper names as a failure point;
// DESIGN.md §8 maps each to its expected recovery behavior.
const (
	// SiteShmMap is the shared memory metadata read plus every table segment
	// open, eager or instant-on — Figure 7's "map the shared memory segments".
	SiteShmMap = "shm.map"
	// SiteShmCommit is every leaf-metadata write, including the valid-bit
	// commit of Figure 6 (target the commit itself with After).
	SiteShmCommit = "shm.commit"
	// SiteShmCopyOut is the per-block heap-to-shm copy of Figure 6.
	SiteShmCopyOut = "shm.copy_out"
	// SiteShmCopyIn is the per-block shm-to-heap clone of Figure 7, before
	// ALIVE on an eager start and in the background promoter on an instant-on
	// one (also a CorruptBytes hook over each column's heap copy, before its
	// checksum is verified).
	SiteShmCopyIn = "shm.copy_in"
	// SiteDiskRead is the block store's per-table image load.
	SiteDiskRead = "disk.read"
	// SiteDiskImage is each image of that load, and each store image a
	// damaged shm block is replaced with: an error costs that one block.
	SiteDiskImage = "disk.image"
	// SiteWireDial is the client-side TCP dial to a leaf or aggregator.
	SiteWireDial = "wire.dial"
	// SiteWireWrite is the client-side request encode.
	SiteWireWrite = "wire.write"
	// SiteWireRead is the client-side response decode.
	SiteWireRead = "wire.read"
	// SiteLeafQuery is leaf-local query execution (arm with ActDelay for a
	// hung leaf, ActError for a failing one). Leaves also check the
	// per-leaf variant PerLeaf(SiteLeafQuery, id) so chaos runs can brown
	// out a fraction of a cluster.
	SiteLeafQuery = "leaf.query"
	// SiteWALAppend is the WAL record write on the ingest path, before the
	// batch is acknowledged (also a CorruptBytes hook over the framed
	// record, so chaos runs can exercise torn-tail handling).
	SiteWALAppend = "wal.append"
	// SiteWALSync is the group-commit fsync acked appends wait on.
	SiteWALSync = "wal.sync"
	// SiteWALTruncate is a persist's deletion of covered WAL segments.
	SiteWALTruncate = "wal.truncate"
	// SiteWALReplay is the per-segment read during crash recovery.
	SiteWALReplay = "wal.replay"
	// SiteSnapWrite is the block store's write of a newly sealed block's
	// image (also a CorruptBytes hook over the image).
	SiteSnapWrite = "snap.write"
)

// Sites lists every base site name, sorted, for -fault validation and docs.
func Sites() []string {
	s := []string{
		SiteShmMap, SiteShmCommit, SiteShmCopyOut, SiteShmCopyIn,
		SiteDiskRead, SiteDiskImage, SiteWireDial, SiteWireWrite, SiteWireRead,
		SiteLeafQuery,
		SiteWALAppend, SiteWALSync, SiteWALTruncate, SiteWALReplay,
		SiteSnapWrite,
	}
	sort.Strings(s)
	return s
}

// PerLeaf derives the per-leaf variant of a site ("leaf.query.3"), so a
// fault can target one leaf out of a cluster sharing the process.
func PerLeaf(site string, id int) string { return site + "." + strconv.Itoa(id) }

// Point is one armed fault.
type Point struct {
	// Site names the fault point (a Site* constant or a PerLeaf variant).
	Site string
	// Action selects what happens when the site fires.
	Action Action
	// Err overrides ErrInjected for ActError.
	Err error
	// Delay is the sleep for ActDelay.
	Delay time.Duration
	// After skips the first After hits of the site (0 fires immediately).
	// Hits are counted per arming, so re-arming resets the gate.
	After int
	// Count fires the action at most Count times (0 = every hit).
	Count int
}

type state struct {
	p     Point
	hits  int // site evaluations since arming
	fired int // times the action ran
}

var (
	// armed gates every site check: a single atomic load that is zero while
	// nothing is armed, keeping disabled fault points free on hot paths.
	armed atomic.Int64

	mu     sync.Mutex
	points = make(map[string]*state)
)

// Enabled reports whether any fault point is armed. Call it to guard
// clusters of per-leaf site checks.
func Enabled() bool { return armed.Load() > 0 }

// Arm installs (or replaces) the fault point for p.Site.
func Arm(p Point) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[p.Site]; !ok {
		armed.Add(1)
	}
	points[p.Site] = &state{p: p}
}

// Disarm removes the fault point for site, if armed.
func Disarm(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[site]; ok {
		delete(points, site)
		armed.Add(-1)
	}
}

// Reset disarms everything. Tests defer it after arming.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	if n := len(points); n > 0 {
		armed.Add(-int64(n))
	}
	points = make(map[string]*state)
}

// Hits returns how many times the site has been evaluated since it was
// armed (0 when not armed) — tests assert a site was actually reached.
func Hits(site string) int {
	mu.Lock()
	defer mu.Unlock()
	if st, ok := points[site]; ok {
		return st.hits
	}
	return 0
}

// take evaluates a site hit and returns the point if the action should
// fire now. wantCorrupt selects whether ActCorrupt points fire (they fire
// only through CorruptBytes, never through Inject).
func take(site string, wantCorrupt bool) (Point, bool) {
	mu.Lock()
	defer mu.Unlock()
	st, ok := points[site]
	if !ok {
		return Point{}, false
	}
	if (st.p.Action == ActCorrupt) != wantCorrupt {
		return Point{}, false
	}
	st.hits++
	if st.hits <= st.p.After {
		return Point{}, false
	}
	if st.p.Count > 0 && st.fired >= st.p.Count {
		return Point{}, false
	}
	st.fired++
	return st.p, true
}

// Inject evaluates a fault site: it returns an error for ActError, sleeps
// for ActDelay, exits the process for ActCrash, and is a no-op for
// unarmed sites and ActCorrupt (which fires through CorruptBytes). The
// disabled path is one atomic load.
func Inject(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	p, fire := take(site, false)
	if !fire {
		return nil
	}
	switch p.Action {
	case ActError:
		if p.Err != nil {
			return p.Err
		}
		return fmt.Errorf("%w at %s", ErrInjected, site)
	case ActDelay:
		time.Sleep(p.Delay)
	case ActCrash:
		fmt.Fprintf(os.Stderr, "fault: hard crash injected at %s\n", site)
		os.Exit(137)
	}
	return nil
}

// CorruptBytes flips bytes of b in place when site is armed with
// ActCorrupt, reporting whether it did. The flip is deterministic — XOR
// 0xA5 at the middle byte and the first byte — so corrupted images are
// reproducible across runs.
func CorruptBytes(site string, b []byte) bool {
	if armed.Load() == 0 || len(b) == 0 {
		return false
	}
	if _, fire := take(site, true); !fire {
		return false
	}
	b[len(b)/2] ^= 0xA5
	b[0] ^= 0xA5
	return true
}

// ArmSpec arms fault points from a flag value: comma-separated
// "site=action" items, each optionally carrying an action argument and
// after/count modifiers separated by semicolons:
//
//	leaf.query=delay:500ms
//	shm.commit=error;after=4
//	shm.copy_out=crash
//	shm.copy_in=corrupt;count=1,wire.read=error:connection reset
//
// Unknown sites and malformed actions are errors, so chaos-run typos fail
// loudly at daemon start instead of silently injecting nothing.
func ArmSpec(spec string) error {
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		p, err := parsePoint(item)
		if err != nil {
			return err
		}
		Arm(p)
	}
	return nil
}

func parsePoint(item string) (Point, error) {
	site, rest, ok := strings.Cut(item, "=")
	if !ok {
		return Point{}, fmt.Errorf("fault: %q is not site=action", item)
	}
	site = strings.TrimSpace(site)
	if !knownSite(site) {
		return Point{}, fmt.Errorf("fault: unknown site %q (known: %s)", site, strings.Join(Sites(), " "))
	}
	p := Point{Site: site}
	parts := strings.Split(rest, ";")
	action, arg, _ := strings.Cut(strings.TrimSpace(parts[0]), ":")
	switch action {
	case "error":
		p.Action = ActError
		if arg != "" {
			p.Err = fmt.Errorf("%w: %s", ErrInjected, arg)
		}
	case "delay":
		p.Action = ActDelay
		d, err := time.ParseDuration(arg)
		if err != nil {
			return Point{}, fmt.Errorf("fault: delay at %s needs a duration: %v", site, err)
		}
		p.Delay = d
	case "corrupt":
		p.Action = ActCorrupt
	case "crash":
		p.Action = ActCrash
	default:
		return Point{}, fmt.Errorf("fault: unknown action %q at %s (error|delay:dur|corrupt|crash)", action, site)
	}
	for _, mod := range parts[1:] {
		key, val, _ := strings.Cut(strings.TrimSpace(mod), "=")
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return Point{}, fmt.Errorf("fault: modifier %q at %s needs a non-negative integer", mod, site)
		}
		switch key {
		case "after":
			p.After = n
		case "count":
			p.Count = n
		default:
			return Point{}, fmt.Errorf("fault: unknown modifier %q at %s (after=N|count=N)", key, site)
		}
	}
	return p, nil
}

// knownSite accepts base sites and their per-leaf variants.
func knownSite(site string) bool {
	for _, s := range Sites() {
		if site == s {
			return true
		}
		if strings.HasPrefix(site, s+".") {
			if _, err := strconv.Atoi(site[len(s)+1:]); err == nil {
				return true
			}
		}
	}
	return false
}

// String describes the armed points, sorted by site, for daemon logs.
func String() string {
	mu.Lock()
	defer mu.Unlock()
	if len(points) == 0 {
		return "none"
	}
	var sites []string
	for site := range points {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	var b strings.Builder
	for i, site := range sites {
		if i > 0 {
			b.WriteString(", ")
		}
		st := points[site]
		fmt.Fprintf(&b, "%s=%s", site, st.p.Action)
		if st.p.Action == ActDelay {
			fmt.Fprintf(&b, ":%v", st.p.Delay)
		}
		if st.p.After > 0 {
			fmt.Fprintf(&b, ";after=%d", st.p.After)
		}
		if st.p.Count > 0 {
			fmt.Fprintf(&b, ";count=%d", st.p.Count)
		}
	}
	return b.String()
}
