package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisabledIsNoop(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("registry armed at start")
	}
	if err := Inject(SiteShmMap); err != nil {
		t.Fatalf("unarmed Inject = %v", err)
	}
	b := []byte{1, 2, 3}
	if CorruptBytes(SiteShmCopyIn, b) {
		t.Fatal("unarmed CorruptBytes fired")
	}
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatal("unarmed CorruptBytes modified the buffer")
	}
}

func TestErrorAfterCount(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	Arm(Point{Site: SiteDiskRead, Action: ActError, After: 2, Count: 1})
	for i := 0; i < 2; i++ {
		if err := Inject(SiteDiskRead); err != nil {
			t.Fatalf("hit %d fired early: %v", i, err)
		}
	}
	if err := Inject(SiteDiskRead); !errors.Is(err, ErrInjected) {
		t.Fatalf("hit 3 = %v, want ErrInjected", err)
	}
	if err := Inject(SiteDiskRead); err != nil {
		t.Fatalf("count=1 exceeded: %v", err)
	}
	if got := Hits(SiteDiskRead); got != 4 {
		t.Fatalf("hits = %d, want 4", got)
	}
}

func TestCustomError(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	boom := errors.New("boom")
	Arm(Point{Site: SiteWireRead, Action: ActError, Err: boom})
	if err := Inject(SiteWireRead); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	Disarm(SiteWireRead)
	if Enabled() {
		t.Fatal("still enabled after Disarm")
	}
	if err := Inject(SiteWireRead); err != nil {
		t.Fatalf("disarmed Inject = %v", err)
	}
}

func TestDelay(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	Arm(Point{Site: SiteLeafQuery, Action: ActDelay, Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := Inject(SiteLeafQuery); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay slept %v, want >= 30ms", d)
	}
}

func TestCorruptIsDeterministicAndScoped(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	Arm(Point{Site: SiteShmCopyIn, Action: ActCorrupt, Count: 1})
	// Inject must not consume a corrupt point (it fires via CorruptBytes).
	if err := Inject(SiteShmCopyIn); err != nil {
		t.Fatal(err)
	}
	a := []byte{0, 0, 0, 0}
	if !CorruptBytes(SiteShmCopyIn, a) {
		t.Fatal("armed CorruptBytes did not fire")
	}
	if a[0] != 0xA5 || a[2] != 0xA5 {
		t.Fatalf("corruption pattern = %v, want deterministic 0xA5 flips", a)
	}
	if CorruptBytes(SiteShmCopyIn, a) {
		t.Fatal("count=1 corrupt fired twice")
	}
}

func TestPerLeafSites(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	Arm(Point{Site: PerLeaf(SiteLeafQuery, 3), Action: ActError})
	if err := Inject(SiteLeafQuery); err != nil {
		t.Fatalf("base site fired for per-leaf arming: %v", err)
	}
	if err := Inject(PerLeaf(SiteLeafQuery, 2)); err != nil {
		t.Fatalf("leaf 2 fired for leaf 3's fault: %v", err)
	}
	if err := Inject(PerLeaf(SiteLeafQuery, 3)); !errors.Is(err, ErrInjected) {
		t.Fatalf("leaf 3 = %v, want ErrInjected", err)
	}
}

func TestArmSpec(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	err := ArmSpec("leaf.query=delay:50ms, shm.commit=error;after=4;count=2, shm.copy_in=corrupt, leaf.query.7=error:hung leaf")
	if err != nil {
		t.Fatal(err)
	}
	got := String()
	for _, want := range []string{"leaf.query=delay:50ms", "shm.commit=error;after=4;count=2", "shm.copy_in=corrupt", "leaf.query.7=error"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
	if err := Inject(PerLeaf(SiteLeafQuery, 7)); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("leaf.query.7 = %v", err)
	}
}

func TestArmSpecRejectsBadInput(t *testing.T) {
	t.Cleanup(Reset)
	Reset()
	for _, spec := range []string{
		"nope.site=error",
		"shm.view=error",     // one segment open since the view became the only reader: shm.map
		"promote.copy=error", // one shm → heap clone: shm.copy_in
		"leaf.query",
		"leaf.query=explode",
		"leaf.query=delay",
		"leaf.query=delay:xyz",
		"shm.map=error;while=3",
		"shm.map=error;after=-1",
		"leaf.query.x=error",
	} {
		if err := ArmSpec(spec); err == nil {
			t.Errorf("ArmSpec(%q) accepted", spec)
		}
		Reset()
	}
}
