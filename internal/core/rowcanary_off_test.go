//go:build !rowcanary

package core_test

const rowCanary = false
