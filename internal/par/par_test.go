package par

import "testing"

func TestThreadsBudget(t *testing.T) {
	if got := Threads(); got != 1 {
		t.Fatalf("Threads() = %d, want 1", got)
	}
}

// TestPoolRoundTrip checks that pooled scratch keeps capacity across a
// get/put cycle and that undersized entries degrade to allocation.
func TestPoolRoundTrip(t *testing.T) {
	s := GetInt32(1000)
	if len(s) != 1000 {
		t.Fatalf("GetInt32(1000) len = %d", len(s))
	}
	s[0], s[999] = 1, 2
	PutInt32(s)
	s2 := GetInt32(500)
	if len(s2) != 500 {
		t.Fatalf("GetInt32(500) len = %d", len(s2))
	}
	PutInt32(s2)

	b := GetInt8(64)
	if len(b) != 64 {
		t.Fatalf("GetInt8(64) len = %d", len(b))
	}
	PutInt8(b)
	PutInt32(nil) // nil is a no-op, not a poison pill
	PutInt8(nil)
}
