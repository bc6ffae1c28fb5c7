package repro.perfbench

import repro.eval.Harness
import repro.graph.MetaPath
import repro.synthgraph.Datasets

/** Loads the classes a benchmark run loads during its set-up, so that the
  * build can dump them into a JVM class-data archive (AppCDS) that every run
  * then maps instead of loading and verifying the classes again. It measures
  * nothing. Arguments: `<threads> <work-dir>`.
  */
object ClassArchiveTraining {
  def main(args: Array[String]): Unit = {
    val spark = Main.session("class-archive", args(0).toInt, args(1))
    try {
      val gen = Datasets.hetero(spark, "imdb-lite")
      val proj = MetaPath.project(gen.graph, Datasets.heteroSpecs("imdb-lite").metaPath)
      Harness.collectWhole(proj)
    } finally spark.stop()
  }
}
