// Package hotdep is a dependency of hotfix with no hot root of its own:
// its allocation sites are findings only because hotfix's //lint:hotpath
// root calls into them, so hotalloc must follow calls across the package
// boundary, generic instances included.
package hotdep

// Scale allocates on every call.
func Scale(v int) []int {
	return make([]int, v) // want "make in hot-path function dcpim/internal/hotdep.Scale .reached from //lint:hotpath root dcpim/internal/hotfix.ring.Push."
}

// A Stack is generic: hotfix calls Push on an instance, which hotalloc
// resolves to this declaration.
type Stack[T any] struct {
	items []T
}

func (s *Stack[T]) Push(v T) {
	s.items = append(s.items, v) // want "append growth in hot-path function dcpim/internal/hotdep.Stack.Push .reached from //lint:hotpath root dcpim/internal/hotfix.ring.Push."
}

// Unreached allocates, but no hot root calls it.
func Unreached() *Stack[int] {
	return &Stack[int]{}
}
