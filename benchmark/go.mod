module bolt/benchmark

go 1.24

require bolt v0.0.0

replace bolt => ../
