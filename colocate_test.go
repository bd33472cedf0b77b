package cudele_test

import (
	"fmt"
	"testing"

	"cudele"
)

// TestColocatedRuntimes exercises the paper's first future-work item
// (§VII): HPC workflows and cloud parallel runtimes co-existing in the
// same namespace. An HPC checkpoint job runs in a decoupled subtree, a
// Hadoop/Spark-style runtime commits work via the temp-file + rename +
// _SUCCESS pattern in an HDFS-like subtree, and a POSIX user works
// normally next to both.
func TestColocatedRuntimes(t *testing.T) {
	cl := cudele.NewCluster()
	cl.MDS().SetStream(true)
	hpc := cl.NewClient("hpc.rank0")
	spark := cl.NewClient("spark.executor0")
	user := cl.NewClient("alice")
	eng := cl.Runtime()

	cl.Run(func(p cudele.Proc) {
		// Subtrees: /ckpt decoupled (BatchFS cell), /hdfs weak-ish with
		// interference allowed (HDFS lets clients read files opened for
		// writing), /home POSIX.
		hpc.MkdirAll(p, "/ckpt", 0755)
		spark.MkdirAll(p, "/hdfs/job0/_temporary", 0755)
		user.MkdirAll(p, "/home/alice", 0755)

		if _, err := cl.Decouple(p, hpc, "/ckpt",
			"consistency: weak\ndurability: local\nallocated_inodes: 2000\ninterfere: block\n"); err != nil {
			t.Errorf("decouple /ckpt: %v", err)
			return
		}

		var hpcDone, sparkDone bool

		// HPC: N:1 checkpoint into the decoupled subtree.
		eng.Spawn("hpc", func(cp cudele.Proc) {
			root, _ := hpc.DecoupledRoot()
			for i := 0; i < 1000; i++ {
				if _, err := hpc.LocalCreate(cp, root, fmt.Sprintf("ckpt.%04d", i), 0644); err != nil {
					t.Errorf("hpc create: %v", err)
					return
				}
			}
			if err := hpc.LocalPersist(cp); err != nil {
				t.Errorf("hpc persist: %v", err)
				return
			}
			if _, _, err := hpc.Merge(cp); err != nil {
				t.Errorf("hpc merge: %v", err)
				return
			}
			hpcDone = true
		})

		// Spark: write temp parts, rename them in, then drop _SUCCESS.
		eng.Spawn("spark", func(sp cudele.Proc) {
			tmp, _ := spark.Resolve(sp, "/hdfs/job0/_temporary")
			job, _ := spark.Resolve(sp, "/hdfs/job0")
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("part-%05d", i)
				if _, err := spark.Create(sp, tmp, name, 0644); err != nil {
					t.Errorf("spark create: %v", err)
					return
				}
				if err := spark.Rename(sp, tmp, name, job, name); err != nil {
					t.Errorf("spark rename: %v", err)
					return
				}
			}
			if _, err := spark.Create(sp, job, "_SUCCESS", 0644); err != nil {
				t.Errorf("spark success: %v", err)
				return
			}
			sparkDone = true
		})

		// Alice keeps using POSIX semantics next door, and polls the
		// Spark job's progress the way the browser interface does.
		eng.Spawn("alice", func(ap cudele.Proc) {
			home, _ := user.Resolve(ap, "/home/alice")
			job, _ := user.Resolve(ap, "/hdfs/job0")
			for i := 0; i < 30; i++ {
				user.Create(ap, home, fmt.Sprintf("note%d", i), 0644)
				if names, err := user.ReadDir(ap, job); err == nil {
					_ = names // % complete = len(names)/51
				}
			}
		})

		// Let everything finish.
		for !(hpcDone && sparkDone) {
			p.Sleep(1e7)
		}
	})

	// All three workloads landed in one namespace.
	store := cl.MDS().Store()
	if _, err := store.Resolve("/ckpt/ckpt.0999"); err != nil {
		t.Errorf("hpc result missing: %v", err)
	}
	if _, err := store.Resolve("/hdfs/job0/_SUCCESS"); err != nil {
		t.Errorf("spark commit missing: %v", err)
	}
	if _, err := store.Resolve("/hdfs/job0/part-00049"); err != nil {
		t.Errorf("spark part missing: %v", err)
	}
	if _, err := store.Resolve("/home/alice/note29"); err != nil {
		t.Errorf("posix file missing: %v", err)
	}

	// Second future-work item: after the job, tighten /hdfs into a POSIX
	// subtree without moving any data.
	cl2 := cl // same cluster, new registration
	c := spark
	cl.Run(func(p cudele.Proc) {
		if _, err := cl2.Decouple(p, c, "/hdfs",
			"consistency: strong\ndurability: global\n"); err != nil {
			t.Errorf("tighten /hdfs: %v", err)
		}
	})
}
