package router

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dio/internal/servecache"
	"dio/internal/tenant"
)

func TestRingDeterministic(t *testing.T) {
	a, b := New(5, 0), New(5, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("ring lookup for %q not deterministic", key)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	const replicas, tenants = 4, 10000
	r := New(replicas, 0)
	counts := make([]int, replicas)
	for i := 0; i < tenants; i++ {
		counts[r.Lookup(fmt.Sprintf("tenant-%d", i))]++
	}
	for rep, n := range counts {
		share := float64(n) / tenants
		if share < 0.12 || share > 0.40 {
			t.Fatalf("replica %d owns %.1f%% of tenants (counts %v), outside [12%%, 40%%]", rep, share*100, counts)
		}
	}
}

// TestRingConsistencyUnderResize pins the consistent-hashing contract:
// growing the pool from K to K+1 replicas moves only the tenants whose
// ring segment the new replica's vnodes claimed — roughly 1/(K+1) of them
// — and every moved tenant moves TO the new replica.
func TestRingConsistencyUnderResize(t *testing.T) {
	const tenants = 10000
	const k = 4
	old, grown := New(k, 0), New(k+1, 0)
	moved := 0
	for i := 0; i < tenants; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		before, after := old.Lookup(key), grown.Lookup(key)
		if before == after {
			continue
		}
		moved++
		if after != k {
			t.Fatalf("tenant %q moved %d→%d, but only the new replica %d may gain tenants", key, before, after, k)
		}
	}
	expect := float64(tenants) / float64(k+1)
	if f := float64(moved); f < 0.5*expect || f > 1.5*expect {
		t.Fatalf("resize %d→%d moved %d tenants, want ≈%.0f (±50%%)", k, k+1, moved, expect)
	}
}

func newTestPool(replicas int) *Pool[string] {
	fronts := make([]*servecache.Front[string], replicas)
	for i := range fronts {
		i := i
		fronts[i] = servecache.NewFront(servecache.FrontConfig[string]{
			Size: 64, TTL: time.Minute,
			Compute: func(ctx context.Context, q string) (string, error) {
				return fmt.Sprintf("replica-%d/%s/%s", i, tenant.From(ctx), q), nil
			},
		})
	}
	return NewPool(fronts, 0)
}

// TestPoolRoutesTenantToOneReplica pins that all of a tenant's requests
// land on the replica the ring names, so its cache entries concentrate.
func TestPoolRoutesTenantToOneReplica(t *testing.T) {
	p := newTestPool(3)
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		ctx := tenant.WithID(context.Background(), id)
		want := p.Replica(id)
		v, st, err := p.Do(ctx, "q", false)
		if err != nil || st != servecache.StatusMiss {
			t.Fatalf("%s first: st=%v err=%v", id, st, err)
		}
		if wantPrefix := fmt.Sprintf("replica-%d/", want); v[:len(wantPrefix)] != wantPrefix {
			t.Fatalf("%s computed on wrong replica: %q, want prefix %q", id, v, wantPrefix)
		}
		if _, st, _ := p.Do(ctx, "q", false); st != servecache.StatusHit {
			t.Fatalf("%s revisit: st=%v, want hit (same replica, same cache)", id, st)
		}
	}
	// Entries live on exactly the owning replicas; aggregate matches.
	if p.Stats().Entries != 50 {
		t.Fatalf("aggregate entries = %d, want 50", p.Stats().Entries)
	}
	for i, f := range p.Fronts() {
		for j := 0; j < 50; j++ {
			id := fmt.Sprintf("tenant-%d", j)
			if n := f.TenantEntries(id); n > 0 && p.Replica(id) != i {
				t.Fatalf("tenant %s has %d entries on replica %d, but the ring owns it to %d", id, n, i, p.Replica(id))
			}
		}
	}
}

func TestPoolPurge(t *testing.T) {
	p := newTestPool(2)
	for i := 0; i < 10; i++ {
		p.Do(tenant.WithID(context.Background(), fmt.Sprintf("t%d", i)), "q", false)
	}
	if p.Stats().Entries == 0 {
		t.Fatal("expected cached entries before purge")
	}
	p.Purge()
	if s := p.Stats(); s.Entries != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("post-purge stats = %+v", s)
	}
}
