module hierknem

go 1.23
