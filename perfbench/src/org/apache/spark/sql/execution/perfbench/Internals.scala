package org.apache.spark.sql.execution.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** The few Spark-internal handles the benchmark's tracer needs; they are
  * package-private in Spark, hence this file's package.
  */
object Internals {

  /** Block until every posted listener event has been delivered. */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Rows produced by the top row-counting operator of a finished SQL
    * execution — for a `collect()`, the rows brought to the driver.
    */
  def outputRows(end: SparkListenerSQLExecutionEnd): Long = {
    def walk(p: SparkPlan): Option[Long] = p match {
      case a: AdaptiveSparkPlanExec => walk(a.executedPlan)
      case s: QueryStageExec        => walk(s.plan)
      case _ =>
        p.metrics.get("numOutputRows").map(_.value)
          .orElse(p.children.headOption.flatMap(walk))
    }
    Option(end.qe).flatMap(qe => walk(qe.executedPlan)).getOrElse(0L)
  }
}
