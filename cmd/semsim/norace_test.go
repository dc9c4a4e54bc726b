//go:build !race

package main

const raceEnabled = false

const raceAllocSlack = 0
