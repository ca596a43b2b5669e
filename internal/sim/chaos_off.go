//go:build !groupchaos

package sim

// chaos perturbs the schedule at Group's hand-offs in a groupchaos build;
// in every other build it is nothing.
func chaos() {}
