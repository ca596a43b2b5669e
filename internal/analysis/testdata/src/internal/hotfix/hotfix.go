// Package hotfix exercises the hotalloc analyzer: a //lint:hotpath root
// and everything it statically calls in-module must contain no allocation
// sites, except under //lint:coldpath functions and //lint:ignore lines.
package hotfix

import "dcpim/internal/hotdep"

type ring struct {
	buf   []int
	stack hotdep.Stack[int]
}

// Push is a hot root: its own append and its callees' allocations, here
// and in hotdep, are findings; grow is cold, so its make is not.
//
//lint:hotpath fixture hot root covering direct and transitive sites
func (r *ring) Push(v int) {
	r.buf = append(r.buf, v) // want "append growth in hot-path function dcpim/internal/hotfix.ring.Push"
	r.helper(v)
	r.grow(v)
	_ = hotdep.Scale(v)
	r.stack.Push(v)
}

func (r *ring) helper(v int) {
	m := make([]int, v) // want "make in hot-path function dcpim/internal/hotfix.ring.helper .reached from //lint:hotpath root dcpim/internal/hotfix.ring.Push."
	_ = m
}

// grow is the deliberate amortized slow path: reachable from Push but
// exempt, so its make is silent.
//
//lint:coldpath fixture amortized growth path
func (r *ring) grow(n int) {
	if cap(r.buf) < n {
		r.buf = append(make([]int, 0, 2*n), r.buf...)
	}
}

func box(v any) {}

// Boxes demonstrates the interface-boxing and closure-capture sites.
//
//lint:hotpath fixture root for boxing and capture sites
func (r *ring) Boxes(v int) {
	box(v)                       // want "interface conversion of int in hot-path function dcpim/internal/hotfix.ring.Boxes"
	f := func() int { return v } // want "closure capturing outer variables in hot-path function dcpim/internal/hotfix.ring.Boxes"
	_ = f
	box(r)   // pointer-shaped: stored inline in the interface, no boxing
	box(nil) // a nil interface: nothing to box
}

// PushSanctioned's append is proven non-growing, suppressed inline.
//
//lint:hotpath fixture root with a sanctioned site
func (r *ring) PushSanctioned(v int) {
	//lint:ignore hotalloc capacity preallocated at construction; this append never grows
	r.buf = append(r.buf, v)
}

// Steady is hot and clean — no findings anywhere in its call tree.
//
//lint:hotpath fixture clean root
func (r *ring) Steady(v int) {
	if len(r.buf) == 0 {
		return
	}
	r.shift(v)
}

func (r *ring) shift(v int) {
	for i := 1; i < len(r.buf); i++ {
		r.buf[i-1] = r.buf[i]
	}
	r.buf[len(r.buf)-1] = v
}

// coldStart allocates freely but is not reachable from any hot root, so
// nothing here is a finding.
func coldStart() *ring {
	return &ring{buf: make([]int, 0, 64)}
}
