module concilium/bench

go 1.22

require concilium v0.0.0

replace concilium => ../
