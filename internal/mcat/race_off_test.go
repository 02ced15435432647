//go:build !race

package mcat_test

const raceEnabled = false
