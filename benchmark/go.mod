module cbes/benchmark

go 1.22

require cbes v0.0.0

replace cbes => ../
