//go:build !rowcanary

package server

const rowCanary = false
