module spal/benchmark

go 1.22

require spal v0.0.0

replace spal => ../
