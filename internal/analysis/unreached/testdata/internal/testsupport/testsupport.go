// Package testsupport is imported only by test files: it is exempt, so
// Helper is no finding though only tests call it.
package testsupport

// Helper is called only from lib_test.go.
func Helper() {}
