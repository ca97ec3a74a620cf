module xtract/bench

go 1.22

require xtract v0.0.0

replace xtract => ../
