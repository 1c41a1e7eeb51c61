package main

import "testing"

// TestMainRuns runs the example end to end; any error exits the test
// binary through log.Fatal.
func TestMainRuns(t *testing.T) { main() }
