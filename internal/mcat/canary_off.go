//go:build !rowcanary

package mcat

import "gosrb/internal/types"

// rowCanary without the rowcanary tag checks nothing; canary.go is the
// checking build.
type rowCanary struct{}

func (*rowCanary) store(*types.DataObject)          {}
func (*rowCanary) check(string, *types.DataObject)  {}
func (*rowCanary) retire(string, *types.DataObject) {}
