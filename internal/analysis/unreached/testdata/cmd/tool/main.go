package main

import (
	"fmt"

	"fix/internal/lib"
)

type visitor interface{ Visit(depth int) }

func main() {
	lib.UsedByCmd()
	var v visitor = lib.T{}
	v.Visit(0)
	fmt.Println(lib.T{})
}
