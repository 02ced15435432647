//go:build !rowcanary

package mcat_test

const rowCanary = false
