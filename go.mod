module cudele

go 1.23
