module halfback/benchmark

go 1.24

require halfback v0.0.0

replace halfback => ../
